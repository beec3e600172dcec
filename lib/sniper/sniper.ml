open Elfie_isa
open Elfie_machine
open Elfie_kernel

module Trace = Elfie_obs.Trace

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

(* A core's hierarchy is [|l1; l2; llc|]; every core's [llc] is the one
   physically shared [Cache.t]. *)
type core_state = { levels : Cache.t array; predictor : Bytes.t }

type model = {
  cfg : config;
  cores : core_state array;
  penalties : int array;  (* by the level [Timing.walk] reports *)
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

let fresh_model (cfg : config) =
  let llc = Cache.create cfg.llc in
  {
    cfg;
    cores =
      Array.init cfg.cores (fun _ ->
          {
            levels = [| Cache.create cfg.l1; Cache.create cfg.l2; llc |];
            predictor = Timing.predictor ();
          });
    penalties = [| 0; cfg.l1_miss_cycles; cfg.l2_miss_cycles; cfg.llc_miss_cycles |];
    cycles = Array.make cfg.cores 0.0;
    llc;
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
  charge model c
    (float_of_int (model.penalties.(Timing.walk model.cores.(c).levels addr)))

let branch model tid pc taken =
  let c = core_index model tid in
  if Timing.mispredicted model.cores.(c).predictor ~pc ~taken = 1 then
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

(* Closes the run: the shared metrics and span, then the result. *)
let finish ~ended sp machine ~fast_forward model =
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
  let ipc =
    if runtime_cycles = 0L then 0.0
    else Int64.to_float instructions /. Int64.to_float runtime_cycles
  in
  let completed =
    Elfie_core.Elfie_runner.finish_simulation ~ended sp machine ~backend:"sniper"
      ~fast_forward ~instructions ~llc_misses:(Cache.misses model.llc)
      ~rate:("ipc", ipc)
  in
  {
    instructions;
    per_thread_instructions;
    runtime_cycles;
    ipc;
    per_core_cycles;
    end_condition_met = model.ec_met;
    completed;
  }

let simulate_elfie ?end_condition ?(from_marker = true) ?(seed = 13L)
    ?(fs_init = fun (_ : Fs.t) -> ()) ?(cwd = "/") ?(max_ins = 100_000_000L) cfg
    image =
  let sp =
    Trace.begin_span "sniper.simulate"
      ~attrs:
        [
          ("source", Trace.S "elfie");
          ("cores", Trace.I (Int64.of_int (cfg : config).cores));
        ]
  in
  let machine = Elfie_core.Elfie_runner.boot ~seed ~cwd fs_init image in
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
  finish ~ended:model.ec_met sp machine ~fast_forward model

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
  (* Constrained replay ends where the log ends: always complete. *)
  finish ~ended:true sp machine ~fast_forward:0L model
