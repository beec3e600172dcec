(* The end-to-end ELFie pipeline benchmark: three workloads driven
   through the layers' public functions, an untraced pass for the
   end-to-end metrics and a traced pass for the per-layer metrics.
   README.md records why each workload was chosen. *)

module Suite = Elfie_workloads.Suite
module Programs = Elfie_workloads.Programs
module Run = Elfie_pin.Run
module Logger = Elfie_pin.Logger
module Sysstate = Elfie_pin.Sysstate
module Simpoint = Elfie_simpoint.Simpoint
module Perf = Elfie_perf.Perf
module Supervisor = Elfie_supervise.Supervisor
module Classify = Elfie_supervise.Classify
module P2e = Elfie_core.Pinball2elf
module Sniper = Elfie_sniper.Sniper
module Coresim = Elfie_coresim.Coresim
module Gem5 = Elfie_gem5.Gem5
module Pipeline = Elfie_harness.Pipeline
module Fig11 = Elfie_harness.Exp_fig11

type workload = Ref_mem | Ref_l1 | Sim_mt

let workloads = [ ("ref-mem", Ref_mem); ("ref-l1", Ref_l1); ("sim-mt", Sim_mt) ]

(* Fig. 10 / Table III parameters, as Exp_ref runs them. *)
let params = Elfie_harness.Exp_ref.params
let trials = 2
let max_alternates = 3
let max_seed_retries = 2

(* The workload seed shifts the seeds of the native measurements on the
   ref workloads and of the Table IV / gem5 simulations on sim-mt; seed
   0 reproduces Exp_ref's base seed and the simulators' defaults. The
   Fig. 11 capture and Sniper seeds stay fixed: one 8-thread region's
   Sniper gap swings by several points from seed to seed, which would
   drown [sniper_gap_pct] in seed noise. *)
let native_base_seed seed = Int64.add 4000L (Int64.mul 10007L seed)
let sim_seed seed = Int64.add 13L seed

type program = { bench : Suite.benchmark; spec : Run.spec }

type inputs = { programs : program list; x264 : program option }

let find name =
  match Suite.find name with
  | Some b -> b
  | None -> failwith ("suite is missing " ^ name)

let program bench = { bench; spec = Programs.run_spec bench.Suite.spec }

(** Build the workload's program images and run specs. *)
let setup w =
  let ref_programs names =
    { programs = List.map (fun n -> program (find n)) names; x264 = None }
  in
  match w with
  | Ref_mem -> ref_programs [ "502.gcc_r"; "505.mcf_r"; "519.lbm_r" ]
  | Ref_l1 ->
      ref_programs [ "531.deepsjeng_r"; "541.leela_r"; "548.exchange2_r" ]
  | Sim_mt ->
      {
        programs = List.map program Suite.spec2017_speed_mt;
        x264 = Some (program (find "525.x264_r"));
      }

(* {1 Per-program results} *)

(** What one pass produced for one program: every simulated statistic
    as an exactly comparable string, whether its outputs passed their
    checks, the operations it attempted and how many failed, and its
    contribution to the accuracy metrics. *)
type result = {
  name : string;
  facts : (string * string) list;
  checked : bool;
  attempted : int;
  failed : int;
  cpi_error : float option;
  coverage : float option;
  sniper_gap : float option;
}

type acc = {
  a_name : string;
  mutable a_facts : (string * string) list;  (** reversed *)
  mutable a_checked : bool;
  mutable a_attempted : int;
  mutable a_failed : int;
}

let acc name =
  {
    a_name = name;
    a_facts = [];
    a_checked = true;
    a_attempted = 0;
    a_failed = 0;
  }

let fact a key v = a.a_facts <- (key, v) :: a.a_facts
let g17 = Printf.sprintf "%.17g"
let i64 = Int64.to_string

let op ?(n = 1) ?(failed = 0) a ok =
  a.a_attempted <- a.a_attempted + n;
  a.a_failed <- a.a_failed + (if ok then failed else n)

let check a ok = if not ok then a.a_checked <- false

let finish ?cpi_error ?coverage ?sniper_gap a =
  {
    name = a.a_name;
    facts = List.rev a.a_facts;
    checked = a.a_checked;
    attempted = a.a_attempted;
    failed = a.a_failed;
    cpi_error;
    coverage;
    sniper_gap;
  }

let workdir = "/work"
let fs_init sysstate fs = Sysstate.install sysstate fs ~workdir

(* {1 Sniper region leg (Fig. 11)} *)

(* Capture a region under fine time-slicing, simulate the pinball under
   constrained replay, profile the (PC, count) region end, convert and
   simulate the ELFie unconstrained. Returns |ELFie - pinball| /
   pinball predicted runtime, the same for CPI, and whether the ELFie
   reached the region end. *)
let sniper_leg a (p : program) (region : Logger.region) =
  let rs = p.spec in
  let scheduler =
    Elfie_machine.Machine.Free
      { seed = rs.Run.seed; quantum_min = 10; quantum_max = 30 }
  in
  let captured =
    Span.with_ "pin.logger" (fun () ->
        Logger.capture ~scheduler rs ~name:(a.a_name ^ "_mt") region)
  in
  Span.count "pin.logger.regions" 1.0;
  Span.count "pin.logger.guest_ins"
    (Int64.to_float (Int64.add region.start region.length));
  let pinball = captured.Logger.pinball in
  let recorded = Elfie_pinball.Pinball.total_icount pinball in
  let pb =
    Span.with_ "sniper.pinball" (fun () ->
        Sniper.simulate_pinball Fig11.config pinball)
  in
  Span.count "sniper.pinball.sim_ins" (Int64.to_float pb.Sniper.instructions);
  let ec =
    Span.with_ "sniper.end_condition" (fun () ->
        Fig11.pick_end_condition pinball rs.Run.image)
  in
  Span.count "sniper.end_condition.sim_ins" (Int64.to_float recorded);
  let sysstate =
    Span.with_ "pin.sysstate" (fun () -> Sysstate.analyze pinball)
  in
  let options =
    {
      P2e.default_options with
      sysstate = Some sysstate;
      marker = Some P2e.Sniper;
      arm_counters = false;
    }
  in
  let elfie =
    Span.with_ "core.pinball2elf" (fun () -> P2e.convert ~options pinball)
  in
  let el =
    Span.with_ "sniper.elfie" (fun () ->
        Sniper.simulate_elfie ~end_condition:ec ~fs_init:(fs_init sysstate)
          ~cwd:workdir
          ~max_ins:(Int64.mul 20L region.length)
          Fig11.config elfie)
  in
  Span.count "sniper.elfie.sim_ins" (Int64.to_float el.Sniper.instructions);
  fact a "sniper.recorded_ins" (i64 recorded);
  fact a "sniper.end_condition"
    (Printf.sprintf "%Lx x%d" ec.Sniper.pc ec.Sniper.count);
  fact a "sniper.pinball"
    (Printf.sprintf "ins %Ld cycles %Ld" pb.Sniper.instructions
       pb.Sniper.runtime_cycles);
  fact a "sniper.elfie"
    (Printf.sprintf "ins %Ld cycles %Ld met %b" el.Sniper.instructions
       el.Sniper.runtime_cycles el.Sniper.end_condition_met);
  op a (captured.Logger.reached_end && pb.Sniper.completed);
  (* Constrained replay must reproduce the recorded instruction count. *)
  check a (pb.Sniper.instructions = recorded && recorded > 0L);
  op a (ec.Sniper.count > 0);
  let met = el.Sniper.completed && el.Sniper.end_condition_met in
  op a (met && el.Sniper.instructions > 0L);
  let f = Int64.to_float in
  let rel x y = Float.abs (x -. y) /. y in
  let gap = rel (f el.Sniper.runtime_cycles) (f pb.Sniper.runtime_cycles) in
  let cpi (r : Sniper.result) =
    f r.Sniper.runtime_cycles /. Float.max 1.0 (f r.Sniper.instructions)
  in
  (gap, rel (cpi el) (cpi pb), met)

(* {1 The ref workloads: Fig. 10 / Table III validation} *)

(** The outcome of validating one program, whether produced by
    [Pipeline.validate] or by the benchmark's replay of its steps. *)
type summary = {
  k : int;
  total_ins : int64;
  num_slices : int;
  whole_cpi : float;
  regions : (int * (Simpoint.region * Perf.sample) option) list;
      (** per cluster, in cluster order: the region used and its sample *)
  quarantined : int;  (** supervised region jobs quarantined *)
  coverage : float;
  pred_cpi : float;
  error : float;
}

(* Coverage and the weighted ELFie prediction, computed as
   Pipeline.validate computes them, so that the replay's figures are
   bit-identical. *)
let summarize ~k ~total_ins ~num_slices ~whole_cpi ~quarantined regions =
  let covered = List.filter_map snd regions in
  let coverage =
    List.fold_left (fun acc (r, _) -> acc +. r.Simpoint.weight) 0.0 covered
  in
  let num, den =
    List.fold_left
      (fun (num, den) ((r : Simpoint.region), (s : Perf.sample)) ->
        (num +. (r.weight *. s.mean_cpi), den +. r.weight))
      (0.0, 0.0) covered
  in
  let pred_cpi = if den > 0.0 then num /. den else 0.0 in
  let error =
    if whole_cpi = 0.0 then 0.0
    else Float.abs (whole_cpi -. pred_cpi) /. whole_cpi
  in
  {
    k;
    total_ins;
    num_slices;
    whole_cpi;
    regions;
    quarantined;
    coverage;
    pred_cpi;
    error;
  }

let of_validation (v : Pipeline.validation) =
  let regions =
    List.map
      (fun (ro : Pipeline.region_outcome) ->
        ( ro.region.Simpoint.cluster,
          match (ro.rank_used, ro.elfie_sample) with
          | Some _, Some s -> Some (ro.region, s)
          | _ -> None ))
      v.regions
  in
  let quarantined =
    List.length
      (List.filter
         (fun (d : Pipeline.degradation) ->
           match d.deg_action with Quarantined _ -> true | _ -> false)
         v.degradations)
  in
  {
    k = v.k;
    total_ins = v.total_ins;
    num_slices = v.num_slices;
    whole_cpi = v.native_whole.Perf.mean_cpi;
    regions;
    quarantined;
    coverage = v.coverage;
    pred_cpi = v.elfie_pred_cpi;
    error = v.elfie_error;
  }

(* One supervised region job, as Pipeline.validate runs it. *)
let supervised ~base_seed ~job (image, sysstate) =
  let policy =
    { Supervisor.default_policy with retries = max_seed_retries; base_seed }
  in
  let report, sample =
    Span.with_ "supervise" (fun () ->
        Supervisor.supervise ~job ~policy ~resume:false
          (fun ~attempt_no:_ ~seed ~budget:_ ->
            let sample, outcomes =
              Span.with_ "perf.region" (fun () ->
                  Perf.elfie_region_detailed ~trials ~base_seed:seed
                    ~fs_init:(fs_init sysstate) ~cwd:workdir image)
            in
            Span.count "perf.region.trials" (float_of_int sample.Perf.trials);
            Span.count "perf.region.trials_failed"
              (float_of_int sample.Perf.failures);
            let cls =
              if sample.Perf.failures < trials then Classify.Graceful
              else
                match
                  List.find_opt
                    (fun (o : Elfie_core.Elfie_runner.outcome) ->
                      not o.graceful)
                    outcomes
                with
                | Some o -> Classify.of_outcome o
                | None -> Classify.Backend_error "no trials ran"
            in
            (Some sample, cls)))
  in
  let attempts = List.length report.Supervisor.attempts in
  Span.count "supervise.attempts" (float_of_int attempts);
  Span.count "supervise.retries" (float_of_int (attempts - 1));
  match sample with
  | Some s when not report.Supervisor.quarantined -> Some s
  | _ -> None

(* Pipeline.validate's steps through the layers' public calls, one span
   per call: profile, select, whole-program measurement, then rank by
   rank batch capture, convert and supervised measurement, falling back
   to alternates for clusters whose ELFie failed. *)
let replay_validate ~base_seed (p : program) =
  let rs = p.spec and bname = p.bench.Suite.bname in
  let profile =
    Span.with_ "pin.bbv" (fun () ->
        Elfie_pin.Bbv.profile rs ~slice_size:params.Simpoint.slice_size)
  in
  Span.count "pin.bbv.guest_ins"
    (Int64.to_float profile.Elfie_pin.Bbv.total_instructions);
  let sel =
    Span.with_ "simpoint" (fun () -> Simpoint.select ~jobs:1 ~params profile)
  in
  let whole =
    Span.with_ "perf.whole" (fun () ->
        Perf.whole_program ~trials ~base_seed rs)
  in
  Span.count "perf.whole.guest_ins"
    (Int64.to_float whole.Perf.instructions *. float_of_int trials);
  let clusters =
    Array.to_list sel.Simpoint.alternates |> List.filter (fun l -> l <> [])
  in
  let resolved = Hashtbl.create 64 in
  let quarantined = ref 0 in
  let rank = ref 0 and pending = ref clusters in
  while !pending <> [] && !rank < max_alternates do
    let requests =
      List.filter_map (fun alts -> List.nth_opt alts !rank) !pending
      |> List.map (fun (r : Simpoint.region) ->
             (Printf.sprintf "%s_c%d_r%d" bname r.cluster r.rank, r))
    in
    let captured =
      Span.with_ "pin.logger" (fun () ->
          Logger.capture_many rs
            (List.map
               (fun (n, (r : Simpoint.region)) ->
                 (n, { Logger.start = r.start; length = r.length }))
               requests))
    in
    Span.count "pin.logger.regions" (float_of_int (List.length requests));
    Span.count "pin.logger.guest_ins"
      (List.fold_left
         (fun m (_, (r : Simpoint.region)) ->
           Float.max m (Int64.to_float (Int64.add r.start r.length)))
         0.0 requests);
    List.iter
      (fun (name, (r : Simpoint.region)) ->
        match List.assoc_opt name captured with
        | Some { Logger.pinball; reached_end = true } -> (
            let sysstate =
              Span.with_ "pin.sysstate" (fun () -> Sysstate.analyze pinball)
            in
            let options =
              {
                P2e.default_options with
                sysstate = Some sysstate;
                marker = Some (P2e.Ssc 0x4649L);
                warmup_mark =
                  (if r.warmup_actual > 0L then Some r.warmup_actual else None);
              }
            in
            let image =
              Span.with_ "core.pinball2elf" (fun () ->
                  P2e.convert ~options pinball)
            in
            match supervised ~base_seed ~job:name (image, sysstate) with
            | Some s -> Hashtbl.replace resolved r.cluster (r, s)
            | None -> incr quarantined)
        | Some _ | None -> ())
      requests;
    pending :=
      List.filter
        (function
          | (r : Simpoint.region) :: _ -> not (Hashtbl.mem resolved r.cluster)
          | [] -> false)
        !pending;
    incr rank
  done;
  summarize ~k:sel.Simpoint.k ~total_ins:sel.Simpoint.total_instructions
    ~num_slices:sel.Simpoint.num_slices ~whole_cpi:whole.Perf.mean_cpi
    ~quarantined:!quarantined
    (List.map
       (fun alts ->
         let c = (List.hd alts).Simpoint.cluster in
         (c, Hashtbl.find_opt resolved c))
       clusters)

let ref_program ~traced ~base_seed (p : program) =
  let a = acc p.bench.Suite.bname in
  let s =
    if traced then replay_validate ~base_seed p
    else
      of_validation
        (Pipeline.validate ~jobs:1 ~params ~trials ~base_seed
           ~max_alternates ~max_seed_retries p.bench)
  in
  fact a "k" (string_of_int s.k);
  fact a "total_ins" (i64 s.total_ins);
  fact a "num_slices" (string_of_int s.num_slices);
  fact a "whole_cpi" (g17 s.whole_cpi);
  fact a "coverage" (g17 s.coverage);
  fact a "pred_cpi" (g17 s.pred_cpi);
  fact a "error" (g17 s.error);
  fact a "quarantined" (string_of_int s.quarantined);
  List.iter
    (fun (c, used) ->
      let key = Printf.sprintf "c%d" c in
      match used with
      | Some ((r : Simpoint.region), (smp : Perf.sample)) ->
          fact a key
            (Printf.sprintf "rank %d start %Ld cpi %s trials %d failed %d"
               r.rank r.start (g17 smp.mean_cpi) smp.trials smp.failures);
          op a true;
          op ~n:smp.trials ~failed:smp.failures a true
      | None ->
          fact a key "abandoned";
          op a false)
    s.regions;
  op ~n:s.quarantined a false;
  check a
    (s.k >= 1 && s.whole_cpi > 0.0 && s.coverage >= 0.0
    && s.coverage <= 1.0 +. 1e-9 && Float.is_finite s.error);
  (* Sniper leg on the slice of the earliest covered region: the
     single-threaded control for Fig. 11b, where ELFie and pinball
     simulation should agree. The earliest region is the cheapest to
     reach. *)
  let earliest =
    List.filter_map snd s.regions
    |> List.sort (fun ((x : Simpoint.region), _) (y, _) ->
           Int64.compare x.start y.start)
  in
  let gap =
    match earliest with
    | (r, _) :: _ ->
        let gap, _, _ =
          sniper_leg a p
            {
              Logger.start = Int64.add r.start r.warmup_actual;
              length = Int64.sub r.length r.warmup_actual;
            }
        in
        Some gap
    | [] ->
        op a false;
        None
  in
  finish ~cpi_error:s.error ~coverage:s.coverage ?sniper_gap:gap a

(* {1 sim-mt: Fig. 11 plus Table IV / gem5} *)

let sim_program (p : program) =
  let a = acc p.bench.Suite.bname in
  let approx = Programs.approx_instructions p.bench.Suite.spec in
  let gap, cpi_gap, met =
    sniper_leg a p { Logger.start = Int64.div approx 3L; length = 240_000L }
  in
  finish ~cpi_error:cpi_gap
    ~coverage:(if met then 1.0 else 0.0)
    ~sniper_gap:gap a

(* Table IV's x264 120k-instruction region ELFie, simulated on CoreSim
   user-level and full-system and on gem5 SE (Nehalem and Haswell). *)
let x264_region ~seed (p : program) =
  let a = acc (p.bench.Suite.bname ^ ".tab4") in
  let approx = Programs.approx_instructions p.bench.Suite.spec in
  let region = { Logger.start = Int64.div approx 3L; length = 120_000L } in
  let captured =
    Span.with_ "pin.logger" (fun () ->
        Logger.capture p.spec ~name:"x264_tab4" region)
  in
  Span.count "pin.logger.regions" 1.0;
  Span.count "pin.logger.guest_ins"
    (Int64.to_float (Int64.add region.start region.length));
  let pinball = captured.Logger.pinball in
  let sysstate =
    Span.with_ "pin.sysstate" (fun () -> Sysstate.analyze pinball)
  in
  let options =
    {
      P2e.default_options with
      sysstate = Some sysstate;
      marker = Some (P2e.Ssc 0x4649L);
    }
  in
  let image =
    Span.with_ "core.pinball2elf" (fun () -> P2e.convert ~options pinball)
  in
  op a captured.Logger.reached_end;
  let seed = sim_seed seed in
  List.iter
    (fun (label, mode) ->
      let r =
        Span.with_ "coresim" (fun () ->
            Coresim.simulate ~mode ~seed ~fs_init:(fs_init sysstate)
              ~cwd:workdir Coresim.skylake image)
      in
      Span.count "coresim.sim_ins"
        (Int64.to_float
           (Int64.add r.Coresim.user_instructions
              r.Coresim.kernel_instructions));
      fact a ("coresim." ^ label)
        (Printf.sprintf
           "user %Ld kernel %Ld cycles %Ld footprint %Ld dtlb %Ld llc %Ld"
           r.user_instructions r.kernel_instructions r.runtime_cycles
           r.data_footprint_bytes r.dtlb_misses r.llc_misses);
      op a (r.completed && r.user_instructions > 0L))
    [ ("user", Coresim.User_level); ("full", Coresim.Full_system) ];
  List.iter
    (fun (cfg : Gem5.cpu_config) ->
      let r =
        Span.with_ "gem5" (fun () ->
            Gem5.simulate_se ~seed ~fs_init:(fs_init sysstate) ~cwd:workdir cfg
              image)
      in
      Span.count "gem5.sim_ins" (Int64.to_float r.Gem5.instructions);
      fact a ("gem5." ^ cfg.name)
        (Printf.sprintf "ins %Ld cycles %Ld l2 %Ld" r.instructions r.cycles
           r.l2_misses);
      op a (r.completed && r.instructions > 0L))
    [ Gem5.nehalem; Gem5.haswell ];
  finish a

(** One pass of the workload. With [traced] the ref workloads replay
    Pipeline.validate's steps instead of calling it; sim-mt runs the same
    code either way. Spans record only while {!Span.enabled} is set. *)
let pass w ~seed ~traced inputs =
  match w with
  | Ref_mem | Ref_l1 ->
      let base_seed = native_base_seed seed in
      List.map (ref_program ~traced ~base_seed) inputs.programs
  | Sim_mt ->
      List.map sim_program inputs.programs
      @ (match inputs.x264 with
        | Some p -> [ x264_region ~seed p ]
        | None -> [])
