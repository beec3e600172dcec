open Elfie_isa
open Elfie_machine
open Elfie_kernel

module Trace = Elfie_obs.Trace

type mode = User_level | Full_system

type config = {
  dispatch_width : int;
  l1 : Cache.config;
  l2 : Cache.config;
  llc : Cache.config;
  dtlb_entries : int;
  l1_miss_cycles : int;
  l2_miss_cycles : int;
  llc_miss_cycles : int;
  tlb_miss_cycles : int;
  mispredict_cycles : int;
  kernel_cpi : float;
  kernel_lines_per_syscall : int;
  timer_interval_ins : int;
  timer_kernel_ins : int;
}

let skylake =
  {
    dispatch_width = 4;
    l1 = Cache.config ~size_bytes:32_768 ~ways:8 ~line_bytes:64;
    l2 = Cache.config ~size_bytes:1_048_576 ~ways:16 ~line_bytes:64;
    llc = Cache.config ~size_bytes:11_534_336 ~ways:11 ~line_bytes:64;
    dtlb_entries = 64;
    l1_miss_cycles = 10;
    l2_miss_cycles = 35;
    llc_miss_cycles = 170;
    tlb_miss_cycles = 30;
    mispredict_cycles = 16;
    kernel_cpi = 9.0;
    kernel_lines_per_syscall = 360;
    timer_interval_ins = 25_000;
    timer_kernel_ins = 400;
  }

type result = {
  user_instructions : int64;
  kernel_instructions : int64;
  runtime_cycles : int64;
  cpi : float;
  data_footprint_bytes : int64;
  dtlb_misses : int64;
  llc_misses : int64;
  syscalls : int64;
  completed : bool;
}

type model = {
  cfg : config;
  mode : mode;
  levels : Cache.t array;  (* [|l1; l2; llc|] *)
  penalties : int array;  (* by the level [Timing.walk] reports *)
  dtlb : Cache.t;
  (* Distinct LLC lines touched. A line enters a cache only through a
     miss, so its first touch misses every level: recording the lines
     the walk fetches from memory sees every line exactly as early as
     recording every access. *)
  footprint : (int64, unit) Hashtbl.t;
  predictor : Bytes.t;
  rng : Elfie_util.Rng.t;
  mutable cycles : float;
  mutable user_ins : int64;
  mutable kernel_ins : int64;
  mutable syscalls : int64;
  mutable window_start_ins : int64;
  mutable window_start_cycles : float;
}

let fresh_model cfg mode =
  {
    cfg;
    mode;
    levels = [| Cache.create cfg.l1; Cache.create cfg.l2; Cache.create cfg.llc |];
    penalties = [| 0; cfg.l1_miss_cycles; cfg.l2_miss_cycles; cfg.llc_miss_cycles |];
    (* The DTLB is a fully-associative page-granular cache. *)
    dtlb =
      Cache.create
        (Cache.config
           ~size_bytes:(cfg.dtlb_entries * Addr_space.page_size)
           ~ways:cfg.dtlb_entries ~line_bytes:Addr_space.page_size);
    footprint = Hashtbl.create 1024;
    predictor = Timing.predictor ();
    rng = Elfie_util.Rng.create 0x5ca1ab1eL;
    cycles = 0.0;
    user_ins = 0L;
    kernel_ins = 0L;
    syscalls = 0L;
    window_start_ins = 0L;
    window_start_cycles = 0.0;
  }

let cache_walk model addr =
  let level = Timing.walk model.levels addr in
  if level = Array.length model.levels then
    Hashtbl.replace model.footprint
      (Int64.unsigned_div addr (Int64.of_int model.cfg.llc.line_bytes))
      ();
  model.penalties.(level)

let mem_access model addr =
  let tlb_penalty =
    if Cache.access model.dtlb addr then 0 else model.cfg.tlb_miss_cycles
  in
  model.cycles <- model.cycles +. float_of_int (tlb_penalty + cache_walk model addr)

(* Kernel execution (full-system only): charge ring-0 instructions at
   the kernel's (stall-inclusive) CPI, walk kernel data through the
   cache hierarchy — evicting user lines and inflating the observed
   footprint — and flush the TLB. The kernel's own working set is small
   and hot (its stalls are folded into kernel_cpi), but its lines are
   distinct from the application's. *)
let kernel_work model kinstr =
  model.kernel_ins <- Int64.add model.kernel_ins (Int64.of_int kinstr);
  model.cycles <- model.cycles +. (float_of_int kinstr *. model.cfg.kernel_cpi);
  let lines = max 16 (kinstr / 4) in
  for _ = 1 to min lines model.cfg.kernel_lines_per_syscall do
    let addr =
      Int64.logor 0xffff_8800_0000_0000L
        (Int64.mul 64L (Int64.of_int (Elfie_util.Rng.int model.rng 2048)))
    in
    ignore (cache_walk model addr)
  done;
  Cache.flush model.dtlb

let branch model pc taken =
  if Timing.mispredicted model.predictor ~pc ~taken = 1 then
    model.cycles <- model.cycles +. float_of_int model.cfg.mispredict_cycles

let simulate ?(mode = User_level) ?(from_marker = true) ?measure_after
    ?(seed = 13L) ?(fs_init = fun (_ : Fs.t) -> ()) ?(cwd = "/")
    ?(max_ins = 100_000_000L) cfg image =
  let sp =
    Trace.begin_span "coresim.simulate"
      ~attrs:
        [
          ( "mode",
            Trace.S (match mode with User_level -> "user" | Full_system -> "full") );
        ]
  in
  let machine = Elfie_core.Elfie_runner.boot ~seed ~cwd fs_init image in
  let model = fresh_model cfg mode in
  let on_ins tid _pc ins =
    model.user_ins <- Int64.add model.user_ins 1L;
    model.cycles <- model.cycles +. (1.0 /. float_of_int model.cfg.dispatch_width);
    (match measure_after with
    | Some w when model.user_ins = w ->
        model.window_start_ins <- model.user_ins;
        model.window_start_cycles <- model.cycles
    | Some _ | None -> ());
    (match model.mode with
    | Full_system
      when Int64.rem model.user_ins (Int64.of_int cfg.timer_interval_ins) = 0L ->
        kernel_work model cfg.timer_kernel_ins
    | Full_system | User_level -> ());
    match Insn.classify ins with
    | Insn.K_syscall ->
        model.syscalls <- Int64.add model.syscalls 1L;
        (match model.mode with
        | User_level -> ()
        | Full_system ->
            let nr =
              Int64.to_int (Context.get (Machine.thread machine tid).Machine.ctx Reg.RAX)
            in
            kernel_work model (Abi.ring0_instructions nr ~bytes:64))
    | K_alu | K_load | K_store | K_branch | K_call | K_vector | K_other -> ()
  in
  let tool =
    {
      (Elfie_pin.Pintool.empty ~name:"coresim") with
      on_ins = Some on_ins;
      on_mem_read = Some (fun _ addr _ -> mem_access model addr);
      on_mem_write = Some (fun _ addr _ -> mem_access model addr);
      on_branch = Some (fun _ pc _ taken -> branch model pc taken);
    }
  in
  let detach =
    Elfie_pin.Pintool.attach_from_marker ~armed:(not from_marker) machine tool
  in
  Machine.run ~max_ins machine;
  let fast_forward = detach () in
  let cpi =
    let ins = Int64.sub model.user_ins model.window_start_ins in
    let cyc = model.cycles -. model.window_start_cycles in
    if ins <= 0L then 0.0 else cyc /. Int64.to_float ins
  in
  let llc_misses = Cache.misses model.levels.(2) in
  let completed =
    Elfie_core.Elfie_runner.finish_simulation ~ended:false sp machine ~backend:"coresim"
      ~fast_forward ~instructions:model.user_ins ~llc_misses ~rate:("cpi", cpi)
  in
  {
    user_instructions = model.user_ins;
    kernel_instructions = model.kernel_ins;
    runtime_cycles = Int64.of_float (Float.round model.cycles);
    cpi;
    data_footprint_bytes =
      Int64.of_int (Hashtbl.length model.footprint * cfg.llc.line_bytes);
    dtlb_misses = Int64.of_int (Cache.misses model.dtlb);
    llc_misses = Int64.of_int llc_misses;
    syscalls = model.syscalls;
    completed;
  }
