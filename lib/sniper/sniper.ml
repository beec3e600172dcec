open Elfie_isa
open Elfie_machine
open Elfie_kernel

module Trace = Elfie_obs.Trace
module Metrics = Elfie_obs.Metrics

(* Same families Coresim registers — the registry is get-or-create by
   name, so both handles resolve to one family. *)
let m_sim_instructions =
  Metrics.counter "elfie_sim_instructions_total"
    ~help:"User instructions simulated, by backend"

let m_cache_miss_ratio =
  Metrics.gauge "elfie_sim_cache_miss_ratio"
    ~help:"Last-level cache misses per simulated user instruction of \
           the most recent run, by backend"

type config = {
  cores : int;
  dispatch_width : int;
  l1 : Cache.config;
  l2 : Cache.config;
  llc : Cache.config;
  l1_miss_cycles : int;
  l2_miss_cycles : int;
  llc_miss_cycles : int;
  mispredict_cycles : int;
  syscall_cycles : int;
  stall_interval_ins : int;
  stall_cycles : int;
}

let gainestown ~cores =
  {
    cores;
    dispatch_width = 4;
    l1 = Cache.config ~size_bytes:32_768 ~ways:8 ~line_bytes:64;
    l2 = Cache.config ~size_bytes:262_144 ~ways:8 ~line_bytes:64;
    llc = Cache.config ~size_bytes:8_388_608 ~ways:16 ~line_bytes:64;
    l1_miss_cycles = 8;
    l2_miss_cycles = 30;
    llc_miss_cycles = 120;
    mispredict_cycles = 14;
    syscall_cycles = 400;
    stall_interval_ins = 2048;
    stall_cycles = 400;
  }

type result = {
  instructions : int64;
  per_thread_instructions : int64 array;
  runtime_cycles : int64;
  ipc : float;
  per_core_cycles : int64 array;
  end_condition_met : bool;
  completed : bool;
}

type end_condition = { pc : int64; count : int }

(* Block-prefix runs of one translation: [runs.(n)] counts observer
   calls that attempted exactly [n] instructions from its head, and
   [last_out.(n)] is the index of the last of those [n] instructions
   outside the excluded range (-1 if none). *)
type prefix_runs = { pcs : int64 array; runs : int array; last_out : int array }

let memo_slots = 256 (* power of two *)

let profile_end_condition ?(exclude = (0L, 0L)) pb =
  let lo, hi = exclude in
  let outside pc = not (pc >= lo && pc < hi) in
  (* Translations by head PC. A head re-translated after self-modifying
     code gets a fresh PC array, so arrays are told apart physically. *)
  let by_head : (int64, prefix_runs list) Hashtbl.t = Hashtbl.create 1024 in
  let none = { pcs = [||]; runs = [||]; last_out = [||] } in
  let memo = Array.make memo_slots none in
  let lookup pcs =
    let slot = Int64.to_int (Array.unsafe_get pcs 0) land (memo_slots - 1) in
    let e = Array.unsafe_get memo slot in
    if e.pcs == pcs then e
    else begin
      let head = pcs.(0) in
      let known = Option.value ~default:[] (Hashtbl.find_opt by_head head) in
      let e =
        match List.find_opt (fun e -> e.pcs == pcs) known with
        | Some e -> e
        | None ->
            let len = Array.length pcs in
            let last_out = Array.make (len + 1) (-1) in
            for n = 1 to len do
              last_out.(n) <- (if outside pcs.(n - 1) then n - 1 else last_out.(n - 1))
            done;
            let e = { pcs; runs = Array.make (len + 1) 0; last_out } in
            Hashtbl.replace by_head head (e :: known);
            e
      in
      memo.(slot) <- e;
      e
    end
  in
  (* The last instruction outside [exclude], as (translation, index). *)
  let last_pcs = ref [||] and last_idx = ref (-1) in
  let machine, _kernel, _ = Elfie_pin.Replayer.materialize ~constrained:true pb in
  let profile = Elfie_obs.Profile.global () in
  Machine.set_block_observer machine
    (Some
       (fun ~tid ~pcs ~n ~ends_block ->
         let e = lookup pcs in
         e.runs.(n) <- e.runs.(n) + 1;
         let j = e.last_out.(n) in
         if j >= 0 then begin
           last_pcs := pcs;
           last_idx := j
         end;
         match profile with
         | Some p -> Elfie_obs.Profile.note_block p ~tid ~pcs ~n ~ends_block
         | None -> ()));
  Machine.run machine;
  Machine.set_block_observer machine None;
  if !last_idx < 0 then { pc = 0L; count = 0 }
  else begin
    (* A run of [n] from the head executed indices [0 .. n-1], so index
       [i] executed once per run longer than [i]. *)
    let pc = !last_pcs.(!last_idx) in
    let count = ref 0 in
    Hashtbl.iter
      (fun _ es ->
        List.iter
          (fun e ->
            let longer = ref 0 in
            for i = Array.length e.pcs - 1 downto 0 do
              longer := !longer + e.runs.(i + 1);
              if Int64.equal e.pcs.(i) pc then count := !count + !longer
            done)
          es)
      by_head;
    { pc; count = !count }
  end

type core_state = { l1 : Cache.t; l2 : Cache.t; predictor : Bytes.t }

type model = {
  cfg : config;
  cores : core_state array;
  (* Per-core cycles and per-thread instruction counts in flat arrays:
     updating them never boxes. *)
  cycles : float array;
  llc : Cache.t;
  rng : Elfie_util.Rng.t;
  dispatch_cycles : float;  (* 1 / dispatch width *)
  mutable per_thread : int array;
  mutable ec_count : int;
  mutable ec_met : bool;
}

let predictor_entries = 4096

let fresh_model cfg =
  {
    cfg;
    cores =
      Array.init cfg.cores (fun _ ->
          {
            l1 = Cache.create cfg.l1;
            l2 = Cache.create cfg.l2;
            predictor = Bytes.make predictor_entries '\002';
          });
    cycles = Array.make cfg.cores 0.0;
    llc = Cache.create cfg.llc;
    rng = Elfie_util.Rng.create 0xBADCAFEL;
    dispatch_cycles = 1.0 /. float_of_int cfg.dispatch_width;
    per_thread = Array.make 16 0;
    ec_count = 0;
    ec_met = false;
  }

let[@inline] core_index model tid = tid mod model.cfg.cores

let[@inline] charge model c cycles = model.cycles.(c) <- model.cycles.(c) +. cycles

let bump_thread model tid =
  if tid >= Array.length model.per_thread then begin
    let bigger = Array.make (tid + 8) 0 in
    Array.blit model.per_thread 0 bigger 0 (Array.length model.per_thread);
    model.per_thread <- bigger
  end;
  model.per_thread.(tid) <- model.per_thread.(tid) + 1

let mem_access model tid addr =
  let c = core_index model tid in
  let core = model.cores.(c) in
  let penalty =
    if Cache.access core.l1 addr then 0
    else if Cache.access core.l2 addr then model.cfg.l1_miss_cycles
    else if Cache.access model.llc addr then model.cfg.l2_miss_cycles
    else model.cfg.llc_miss_cycles
  in
  charge model c (float_of_int penalty)

let branch model tid pc taken =
  let c = core_index model tid in
  let core = model.cores.(c) in
  let idx =
    abs (Int64.to_int (Int64.rem (Int64.shift_right_logical pc 1)
                         (Int64.of_int predictor_entries)))
  in
  let counter = Char.code (Bytes.get core.predictor idx) in
  let predicted = counter >= 2 in
  Bytes.set core.predictor idx
    (Char.chr (if taken then min 3 (counter + 1) else max 0 (counter - 1)));
  if predicted <> taken then
    charge model c (float_of_int model.cfg.mispredict_cycles)

let tool model machine end_condition =
  let on_ins tid pc ins =
    (match end_condition with
    | Some ec when pc = ec.pc ->
        model.ec_count <- model.ec_count + 1;
        if model.ec_count >= ec.count then begin
          model.ec_met <- true;
          Machine.request_stop machine
        end
    | Some _ | None -> ());
    let c = core_index model tid in
    charge model c model.dispatch_cycles;
    if Elfie_util.Rng.int model.rng model.cfg.stall_interval_ins = 0 then
      charge model c (float_of_int model.cfg.stall_cycles);
    bump_thread model tid;
    match Insn.classify ins with
    | Insn.K_syscall -> charge model c (float_of_int model.cfg.syscall_cycles)
    | K_alu | K_load | K_store | K_branch | K_call | K_vector | K_other -> ()
  in
  {
    (Elfie_pin.Pintool.empty ~name:"sniper") with
    on_ins = Some on_ins;
    on_mem_read = Some (fun tid addr _ -> mem_access model tid addr);
    on_mem_write = Some (fun tid addr _ -> mem_access model tid addr);
    on_branch = Some (fun tid pc _target taken -> branch model tid pc taken);
  }

let record_metrics model r =
  let backend = [ ("backend", "sniper") ] in
  Metrics.inc m_sim_instructions ~labels:backend
    ~by:(Int64.to_float r.instructions);
  Metrics.set m_cache_miss_ratio ~labels:backend
    (Int64.to_float (Int64.of_int (Cache.misses model.llc))
    /. Float.max 1.0 (Int64.to_float r.instructions))

let end_sim_span sp machine ~fast_forward r =
  Trace.end_span sp
    ~attrs:
      [
        ("instructions", Trace.I r.instructions);
        ("ipc", Trace.F r.ipc);
        ("completed", Trace.B r.completed);
        ("fast_forward_instructions", Trace.I fast_forward);
        ( "superblocks_built",
          Trace.I (Int64.of_int (Machine.chain_stats machine).superblocks_built) );
      ]

let collect ?(completed = true) model =
  let per_core_cycles =
    Array.map (fun c -> Int64.of_float (Float.round c)) model.cycles
  in
  let runtime_cycles = Array.fold_left max 0L per_core_cycles in
  let n_threads =
    let rec last i = if i = 0 then 0 else if model.per_thread.(i - 1) > 0 then i else last (i - 1) in
    last (Array.length model.per_thread)
  in
  let per_thread_instructions =
    Array.init (max 1 n_threads) (fun i -> Int64.of_int model.per_thread.(i))
  in
  let instructions = Array.fold_left Int64.add 0L per_thread_instructions in
  {
    instructions;
    per_thread_instructions;
    runtime_cycles;
    ipc =
      (if runtime_cycles = 0L then 0.0
       else Int64.to_float instructions /. Int64.to_float runtime_cycles);
    per_core_cycles;
    end_condition_met = model.ec_met;
    completed;
  }

let simulate_elfie ?end_condition ?(from_marker = true) ?(seed = 13L)
    ?(fs_init = fun (_ : Fs.t) -> ()) ?(cwd = "/") ?(max_ins = 100_000_000L) cfg
    image =
  let machine =
    Machine.create (Machine.Free { seed; quantum_min = 50; quantum_max = 200 })
  in
  let fs = Fs.create () in
  fs_init fs;
  let kernel =
    Vkernel.create
      ~config:{ Vkernel.default_config with seed; initial_cwd = cwd; kernel_cost = false }
      fs
  in
  Vkernel.install kernel machine;
  let sp =
    Trace.begin_span "sniper.simulate"
      ~attrs:
        [
          ("source", Trace.S "elfie");
          ("cores", Trace.I (Int64.of_int (cfg : config).cores));
        ]
  in
  let _ = Loader.load kernel machine image ~argv:[ "elfie" ] ~env:[] in
  Elfie_pin.Tools.attach_global_profile machine;
  let model = fresh_model cfg in
  let detach =
    Elfie_pin.Pintool.attach_from_marker ~armed:(not from_marker) machine
      (tool model machine end_condition)
  in
  (* Cycle-driven scheduling: always advance the thread whose core is
     earliest in simulated time. This is what makes unconstrained
     multi-threaded simulation realistic — a thread held at a spin
     barrier keeps retiring wait-loop instructions until the slowest
     worker's *cycles* catch up, inflating instruction counts exactly as
     the paper observes for ELFies under Sniper. Before the marker no
     cycles are charged, so the lowest runnable tid runs. *)
  let quantum = 8 in
  let cycles = model.cycles in
  let rec loop () =
    if (not (Machine.stop_requested machine)) && Machine.total_retired machine < max_ins
    then begin
      let best = ref (-1) in
      for tid = 0 to Machine.thread_count machine - 1 do
        match (Machine.thread machine tid).Machine.state with
        | Machine.Runnable ->
            if
              !best < 0
              || cycles.(core_index model tid) < cycles.(core_index model !best)
            then best := tid
        | Exited _ | Faulted _ -> ()
      done;
      if !best >= 0 then begin
        ignore (Machine.run_thread machine !best quantum);
        loop ()
      end
    end
  in
  loop ();
  let fast_forward = detach () in
  (* Complete = the end condition fired or every thread exited; a loop
     that stopped only because of the instruction cap did not finish. *)
  let completed =
    model.ec_met
    || List.for_all
         (fun th -> th.Machine.state <> Machine.Runnable)
         (Machine.threads machine)
  in
  let r = collect ~completed model in
  record_metrics model r;
  end_sim_span sp machine ~fast_forward r;
  r

let simulate_pinball ?end_condition cfg pb =
  let sp =
    Trace.begin_span "sniper.simulate"
      ~attrs:
        [
          ("source", Trace.S "pinball");
          ("cores", Trace.I (Int64.of_int (cfg : config).cores));
        ]
  in
  let machine, _kernel, _div = Elfie_pin.Replayer.materialize ~constrained:true pb in
  Elfie_pin.Tools.attach_global_profile machine;
  let model = fresh_model cfg in
  let detach = Elfie_pin.Pintool.attach machine [ tool model machine end_condition ] in
  Machine.run machine;
  detach ();
  let r = collect model in
  record_metrics model r;
  end_sim_span sp machine ~fast_forward:0L r;
  r
