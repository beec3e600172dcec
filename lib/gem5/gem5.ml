open Elfie_isa
open Elfie_machine
open Elfie_kernel

module Trace = Elfie_obs.Trace

type cpu_config = {
  name : string;
  rob_entries : int;
  issue_width : int;
  lsq_entries : int;
  int_regs : int;
  l1 : Cache.config;
  l2 : Cache.config;
  l1_miss_cycles : int;
  l2_miss_cycles : int;
  mispredict_cycles : int;
}

let nehalem =
  {
    name = "nehalem-like";
    rob_entries = 128;
    issue_width = 4;
    lsq_entries = 48;
    int_regs = 128;
    l1 = Cache.config ~size_bytes:32_768 ~ways:8 ~line_bytes:64;
    l2 = Cache.config ~size_bytes:262_144 ~ways:8 ~line_bytes:64;
    l1_miss_cycles = 10;
    l2_miss_cycles = 180;
    mispredict_cycles = 17;
  }

let haswell =
  {
    name = "haswell-like";
    rob_entries = 192;
    issue_width = 8;
    lsq_entries = 72;
    int_regs = 168;
    l1 = Cache.config ~size_bytes:32_768 ~ways:8 ~line_bytes:64;
    l2 = Cache.config ~size_bytes:262_144 ~ways:8 ~line_bytes:64;
    l1_miss_cycles = 10;
    l2_miss_cycles = 180;
    mispredict_cycles = 14;
  }

type result = {
  instructions : int64;
  cycles : int64;
  ipc : float;
  l2_misses : int64;
  completed : bool;
}

type model = {
  cfg : cpu_config;
  levels : Cache.t array;  (* [|l1; l2|] *)
  penalties : float array;  (* by the level [Timing.walk] reports *)
  predictor : Bytes.t;
  mutable cycles : float;
  mutable instructions : int64;
}

let fresh cfg =
  (* The overlap window hides part of each long-latency miss: a bigger
     ROB/LSQ keeps more independent work in flight. *)
  let overlap_window =
    float_of_int (cfg.rob_entries / cfg.issue_width)
    +. (float_of_int cfg.lsq_entries /. 2.0)
    +. (float_of_int (cfg.int_regs - 96) /. 4.0)
  in
  {
    cfg;
    levels = [| Cache.create cfg.l1; Cache.create cfg.l2 |];
    penalties =
      [|
        0.0;
        float_of_int cfg.l1_miss_cycles;
        (* Interval model: the ROB keeps issuing under the miss until it
           fills, so only the uncovered part of the latency stalls. *)
        Float.max 12.0 (float_of_int cfg.l2_miss_cycles -. overlap_window);
      |];
    predictor = Timing.predictor ();
    cycles = 0.0;
    instructions = 0L;
  }

let mem_access model addr =
  model.cycles <- model.cycles +. model.penalties.(Timing.walk model.levels addr)

let branch model pc taken =
  if Timing.mispredicted model.predictor ~pc ~taken = 1 then
    model.cycles <- model.cycles +. float_of_int model.cfg.mispredict_cycles

let simulate_se ?(from_marker = true) ?(seed = 13L) ?(fs_init = fun (_ : Fs.t) -> ())
    ?(cwd = "/") ?(max_ins = 100_000_000L) cfg image =
  let sp =
    Trace.begin_span "gem5.simulate"
      ~attrs:[ ("cpu", Trace.S cfg.name); ("mode", Trace.S "se") ]
  in
  let machine = Elfie_core.Elfie_runner.boot ~seed ~cwd fs_init image in
  let model = fresh cfg in
  let on_ins _tid _pc ins =
    model.instructions <- Int64.add model.instructions 1L;
    model.cycles <- model.cycles +. (1.0 /. float_of_int model.cfg.issue_width);
    match Insn.classify ins with
    | Insn.K_vector ->
        (* SSE2-era vector support: half throughput. *)
        model.cycles <- model.cycles +. (1.0 /. float_of_int model.cfg.issue_width)
    | K_syscall -> model.cycles <- model.cycles +. 120.0
    | K_alu | K_load | K_store | K_branch | K_call | K_other -> ()
  in
  let tool =
    {
      (Elfie_pin.Pintool.empty ~name:"gem5-se") with
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
  let ipc =
    if model.cycles = 0.0 then 0.0
    else Int64.to_float model.instructions /. model.cycles
  in
  let l2_misses = Cache.misses model.levels.(1) in
  let completed =
    Elfie_core.Elfie_runner.finish_simulation ~ended:false sp machine ~backend:"gem5" ~fast_forward
      ~instructions:model.instructions ~llc_misses:l2_misses ~rate:("ipc", ipc)
  in
  {
    instructions = model.instructions;
    cycles = Int64.of_float (Float.round model.cycles);
    ipc;
    l2_misses = Int64.of_int l2_misses;
    completed;
  }
