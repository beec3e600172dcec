(* Benchmark harness.

   Part 1 — Bechamel micro-benchmarks: one Test.make per paper table or
   figure, measuring the pipeline stage that dominates that experiment
   (logging for Table I, BBV profiling for Fig. 9, ...).

   Part 2 — regenerates every table and figure via the experiment
   registry and prints them, so `dune exec bench/main.exe` reproduces
   the paper's whole evaluation. *)

open Bechamel
open Toolkit

(* --- machine-core microbenchmark (BENCH_core.json) ---------------------

   Interpreted instructions/second on a stream+branchy kernel, hook-free
   (the superblock chain tier) and with an instruction-counting pintool
   attached (the per-instruction interpreter), on an L1-resident 64 KiB
   working set; plus the chain tier on a 2 MiB working set, where the
   cache model does most of the core's work. Written to BENCH_core.json
   so later changes have a perf trajectory to compare against. Each row
   also reports the minor-heap words allocated per retired instruction
   over the timed run (translation included): the hot-path rule of
   docs/PERFORMANCE.md keeps the hook-free rows near zero. *)

let core_kernels =
  ref
    [ { Elfie_workloads.Programs.kernel = Elfie_workloads.Kernels.Stream;
        reps = 4000 };
      { kernel = Elfie_workloads.Kernels.Branchy; reps = 4000 } ]

(* Kernel reps scale with the working set, so every pass sweeps the whole
   set as often as the 64 KiB rows sweep theirs. *)
let core_spec ~ws_bytes =
  let phases =
    List.map
      (fun (p : Elfie_workloads.Programs.phase) ->
        { p with reps = p.reps * ws_bytes / 65536 })
      !core_kernels
  in
  Elfie_workloads.Programs.spec ~phases ~outer_reps:200 ~threads:1 ~ws_bytes "core"

let core_max_ins = 4_000_000L

let run_core ~hooks ~ws_bytes ~seed =
  let rs = Elfie_workloads.Programs.run_spec ~seed (core_spec ~ws_bytes) in
  let machine, _kernel = Elfie_pin.Run.instantiate rs in
  if hooks then begin
    let counted = ref 0L in
    let tool =
      {
        (Elfie_pin.Pintool.empty ~name:"bench-count") with
        on_ins = Some (fun _ _ _ -> counted := Int64.add !counted 1L);
      }
    in
    let (_ : unit -> unit) = Elfie_pin.Pintool.attach machine [ tool ] in
    ()
  end;
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  Elfie_machine.Machine.run ~max_ins:core_max_ins machine;
  let wall = Unix.gettimeofday () -. t0 in
  let ins = Elfie_machine.Machine.total_retired machine in
  (ins, wall, (Gc.minor_words () -. w0) /. Int64.to_float ins)

let json_escape s = String.concat "\\\"" (String.split_on_char '"' s)

let core_bench () =
  let trials = 5 in
  (* All phases measured interleaved (phase A trial 1, phase B trial 1,
     ..., phase A trial 2, ...) so no phase systematically benefits from
     cache/frequency warm-up over another. *)
  let phases =
    [ ("core/chained", false, 65536);
      ("core/with-ins-hook", true, 65536);
      ("core/chained-2MiB", false, 2 * 1024 * 1024) ]
  in
  let best = Hashtbl.create 4 in
  for i = 0 to trials - 1 do
    List.iter
      (fun (name, hooks, ws_bytes) ->
        let ins, w, wpi = run_core ~hooks ~ws_bytes ~seed:(Int64.of_int (100 + i)) in
        match Hashtbl.find_opt best name with
        | Some (_, bw, _) when bw <= w -> ()
        | _ -> Hashtbl.replace best name (ins, w, wpi))
      phases
  done;
  print_endline "=== Machine-core microbenchmark ===";
  let rows =
    List.map
      (fun (name, _, _) ->
        let ins, best_wall, wpi = Hashtbl.find best name in
        let ips = Int64.to_float ins /. best_wall in
        Printf.printf
          "%-28s %12.0f ins/s  %6.3f words/ins  (%Ld ins, best of %d, %.3f s)\n%!"
          name ips wpi ins trials best_wall;
        Printf.sprintf
          "    { \"name\": \"%s\", \"ins_per_sec\": %.0f, \"wall_s\": %.6f, \
           \"words_per_ins\": %.4f, \"instructions\": %Ld, \"trials\": %d }"
          (json_escape name) ips best_wall wpi ins trials)
      phases
  in
  let oc = open_out "BENCH_core.json" in
  Printf.fprintf oc "{\n  \"benchmarks\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" rows);
  close_out oc;
  Printf.printf "wrote BENCH_core.json (jobs default: %d)\n\n%!"
    (Elfie_util.Pool.default_jobs ())

(* --- SimPoint front-end microbenchmark (BENCH_simpoint.json) -----------

   Profile-stage instructions/second with the per-instruction reference
   BBV tool vs the block-driven (hook-free) collector, plus the k-means
   model-selection sweep's wall time at jobs=1 vs the pool default.
   Written to BENCH_simpoint.json next to BENCH_core.json. *)

let simpoint_max_ins = 2_000_000L
let simpoint_slice = 10_000L

let run_profile ~per_ins ~seed =
  let rs = Elfie_workloads.Programs.run_spec ~seed (core_spec ~ws_bytes:65536) in
  let t0 = Unix.gettimeofday () in
  let p =
    if per_ins then
      Elfie_pin.Bbv.profile_per_ins ~max_ins:simpoint_max_ins rs
        ~slice_size:simpoint_slice
    else
      Elfie_pin.Bbv.profile ~max_ins:simpoint_max_ins rs
        ~slice_size:simpoint_slice
  in
  (p, Unix.gettimeofday () -. t0)

let simpoint_bench () =
  let trials = 3 in
  print_endline "=== SimPoint front-end microbenchmark ===";
  let bench_profile name per_ins =
    let runs =
      List.init trials (fun i ->
          run_profile ~per_ins ~seed:(Int64.of_int (100 + i)))
    in
    let ins, best_wall =
      List.fold_left
        (fun (bi, bw) ((p : Elfie_pin.Bbv.profile), w) ->
          if w < bw then (p.total_instructions, w) else (bi, bw))
        (0L, infinity) runs
    in
    let ips = Int64.to_float ins /. best_wall in
    Printf.printf "%-32s %12.0f ins/s  (%Ld ins, best of %d, %.3f s)\n%!" name
      ips ins trials best_wall;
    Printf.sprintf
      "    { \"name\": \"%s\", \"ins_per_sec\": %.0f, \"wall_s\": %.6f, \
       \"instructions\": %Ld, \"trials\": %d }"
      (json_escape name) ips best_wall ins trials
  in
  let per_ins_row = bench_profile "simpoint/profile-per-ins" true in
  let block_row = bench_profile "simpoint/profile-block-driven" false in
  let p, _ = run_profile ~per_ins:false ~seed:100L in
  let points = Elfie_simpoint.Simpoint.project_profile ~dims:15 p in
  let cluster_row =
    let rng = Elfie_util.Rng.create 7L in
    let t0 = Unix.gettimeofday () in
    let r = Elfie_simpoint.Kmeans.best ~rng ~max_k:30 points in
    let wall = Unix.gettimeofday () -. t0 in
    Printf.printf "%-32s %10.4f s  (k=%d over %d points)\n%!" "simpoint/cluster"
      wall r.k (Array.length points);
    Printf.sprintf
      "    { \"name\": \"simpoint/cluster\", \"wall_s\": %.6f, \"k\": %d, \
       \"points\": %d }"
      wall r.k (Array.length points)
  in
  let rows = [ per_ins_row; block_row; cluster_row ] in
  let oc = open_out "BENCH_simpoint.json" in
  Printf.fprintf oc "{\n  \"benchmarks\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" rows);
  close_out oc;
  print_endline "wrote BENCH_simpoint.json\n"

(* --- Snapshot microbenchmark (BENCH_snapshot.json) ---------------------

   The copy-on-write warm-once/fork-many trial methodology against the
   baseline it replaces: N region trials, each either forked off one
   warmed capture (Elfie_runner.warm + resume) or run from scratch with
   its own warmup (Elfie_runner.run). The region is mostly warmup
   (300k-instruction region, mark at 270k), as the paper's regions are,
   so re-warming dominates the baseline's cost. Interleaved best-of-5;
   written to BENCH_snapshot.json. The @snapshot runtest guard checks
   the same property on a smaller workload. *)

let snapshot_trials = 8
let snapshot_rounds = 5

let snapshot_image () =
  let spec =
    Elfie_workloads.Programs.spec
      ~phases:
        [ { Elfie_workloads.Programs.kernel = Elfie_workloads.Kernels.Stream;
            reps = 4000 };
          { kernel = Elfie_workloads.Kernels.Branchy; reps = 4000 } ]
      ~outer_reps:50 ~threads:1 ~ws_bytes:65536 "bench_snap"
  in
  let rs = Elfie_workloads.Programs.run_spec ~seed:7L spec in
  let cap =
    Elfie_pin.Logger.capture rs ~name:"bench_snap"
      { Elfie_pin.Logger.start = 20_000L; length = 300_000L }
  in
  Elfie_core.Pinball2elf.convert
    ~options:
      { Elfie_core.Pinball2elf.default_options with
        marker = Some (Elfie_core.Pinball2elf.Ssc 1L);
        warmup_mark = Some 270_000L }
    cap.Elfie_pin.Logger.pinball

let snapshot_bench () =
  print_endline
    "=== Snapshot microbenchmark (warm-once/fork-many vs re-warm) ===";
  let image = snapshot_image () in
  let warn name (o : Elfie_core.Elfie_runner.outcome) =
    if not o.Elfie_core.Elfie_runner.graceful then
      Printf.printf "WARNING: %s trial not graceful (%s)\n%!" name
        (Option.value ~default:"?" o.Elfie_core.Elfie_runner.fault)
  in
  let rewarm () =
    let t0 = Unix.gettimeofday () in
    for i = 0 to snapshot_trials - 1 do
      warn "re-warm"
        (Elfie_core.Elfie_runner.run ~seed:(Int64.of_int (3000 + i)) image)
    done;
    Unix.gettimeofday () -. t0
  in
  let warm_fork () =
    let t0 = Unix.gettimeofday () in
    (match Elfie_core.Elfie_runner.warm ~seed:3000L image with
    | Ok w ->
        for i = 0 to snapshot_trials - 1 do
          warn "forked"
            (Elfie_core.Elfie_runner.resume ~seed:(Int64.of_int (3000 + i)) w)
        done
    | Error _ -> Printf.printf "WARNING: warm failed (no mark?)\n%!");
    Unix.gettimeofday () -. t0
  in
  let best_fork = ref infinity and best_rewarm = ref infinity in
  (* Interleaved, alternating which leg goes first each round, so
     neither systematically benefits from cache/frequency warm-up. *)
  for r = 0 to snapshot_rounds - 1 do
    let legs =
      if r land 1 = 0 then [ (best_fork, warm_fork); (best_rewarm, rewarm) ]
      else [ (best_rewarm, rewarm); (best_fork, warm_fork) ]
    in
    List.iter (fun (best, leg) -> best := min !best (leg ())) legs
  done;
  let pages =
    match Elfie_core.Elfie_runner.warm ~seed:3000L image with
    | Ok w -> Elfie_core.Elfie_runner.warmed_pages w
    | Error _ -> 0
  in
  let speedup = !best_rewarm /. !best_fork in
  let row name wall =
    Printf.printf "%-28s %10.3f s total  %8.1f ms/trial  (best of %d)\n%!"
      name wall
      (1000.0 *. wall /. float_of_int snapshot_trials)
      snapshot_rounds;
    Printf.sprintf
      "    { \"name\": \"%s\", \"wall_s\": %.6f, \"trials\": %d, \"rounds\": \
       %d }"
      (json_escape name) wall snapshot_trials snapshot_rounds
  in
  let fork_row = row "snapshot/warm-and-fork" !best_fork in
  let rewarm_row = row "snapshot/re-warm-per-trial" !best_rewarm in
  Printf.printf "%-28s %10.2fx  (%d CoW pages per capture)\n%!"
    "snapshot/speedup" speedup pages;
  if speedup < 3.0 then
    Printf.printf "WARNING: warm-once/fork-many speedup %.2fx below 3x\n%!"
      speedup;
  let speedup_row =
    Printf.sprintf
      "    { \"name\": \"snapshot/speedup\", \"speedup\": %.3f, \
       \"snapshot_pages\": %d }"
      speedup pages
  in
  let oc = open_out "BENCH_snapshot.json" in
  Printf.fprintf oc "{\n  \"benchmarks\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" [ fork_row; rewarm_row; speedup_row ]);
  close_out oc;
  print_endline "wrote BENCH_snapshot.json\n"

(* --- Capture microbenchmark (BENCH_capture.json) -----------------------

   PinPlay capture against a plain run of the same program: a fat
   [Logger.capture_many] of three 50k-instruction regions, starting at
   a quarter, half and three quarters of the program, vs
   [Run.native] to completion. Both legs build their own machine, so
   the ratio is what capture adds to running the program. Interleaved
   best-of-5 with the leg order alternating per round, on four SPEC
   CPU2017 intrate train stand-ins; the ROADMAP gate is capture <= 1.2x
   the plain run. The @capture-smoke runtest guard checks a looser
   bound on a smaller program. *)

let capture_rounds = 5
let capture_region_length = 50_000L

let capture_programs =
  [ "500.perlbench_r"; "502.gcc_r"; "505.mcf_r"; "520.omnetpp_r" ]

let capture_bench () =
  print_endline "=== Capture microbenchmark (capture_many vs plain run) ===";
  let module Metrics = Elfie_obs.Metrics in
  let m_hooked = Metrics.counter "elfie_logger_hooked_instructions_total" in
  let time f =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    Unix.gettimeofday () -. t0
  in
  let row name =
    let b =
      List.find
        (fun (b : Elfie_workloads.Suite.benchmark) -> b.bname = name)
        Elfie_workloads.Suite.spec2017_int_train
    in
    let rs = Elfie_workloads.Programs.run_spec b.spec in
    let total = (Elfie_pin.Run.native rs).Elfie_pin.Run.retired in
    let requests =
      List.map
        (fun q ->
          ( Printf.sprintf "q%d" q,
            { Elfie_pin.Logger.start = Int64.div (Int64.mul total (Int64.of_int q)) 4L;
              length = capture_region_length } ))
        [ 1; 2; 3 ]
    in
    let plain () = Elfie_pin.Run.native rs in
    let capture () = Elfie_pin.Logger.capture_many rs requests in
    let hooked0 = Metrics.total m_hooked in
    let best_plain = ref infinity and best_capture = ref infinity in
    for r = 0 to capture_rounds - 1 do
      let legs =
        [ (best_plain, fun () -> time plain); (best_capture, fun () -> time capture) ]
      in
      List.iter
        (fun (best, leg) -> best := min !best (leg ()))
        (if r land 1 = 0 then legs else List.rev legs)
    done;
    let hooked = Metrics.total m_hooked -. hooked0 in
    let ratio = !best_capture /. !best_plain in
    Printf.printf
      "capture/%-18s plain %7.1f ms  capture %7.1f ms  %5.2fx  (best of %d)\n%!"
      name (1000. *. !best_plain) (1000. *. !best_capture) ratio capture_rounds;
    if ratio > 1.2 then
      Printf.printf "WARNING: capture %.2fx a plain run (gate 1.2x)\n%!" ratio;
    if hooked > 0. then
      Printf.printf "WARNING: fat capture retired %.0f hooked instructions\n%!"
        hooked;
    Printf.sprintf
      "    { \"name\": \"capture/%s\", \"plain_s\": %.6f, \"capture_s\": \
       %.6f, \"ratio\": %.3f, \"retired\": %Ld, \"regions\": 3, \
       \"region_length\": %Ld, \"hooked_instructions\": %.0f, \"rounds\": %d }"
      (json_escape name) !best_plain !best_capture ratio total
      capture_region_length hooked capture_rounds
  in
  let rows = List.map row capture_programs in
  let oc = open_out "BENCH_capture.json" in
  Printf.fprintf oc "{\n  \"benchmarks\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" rows);
  close_out oc;
  print_endline "wrote BENCH_capture.json\n"

(* --- Simulator microbenchmark (BENCH_sim.json) --------------------------

   The simulator legs of e2ebench's sim-mt workload, one row each:
   Sniper on the pinball, the end-condition profile and Sniper on the
   ELFie for one 8-thread spec2017_speed_mt 240k-instruction region
   (Fig. 11), then CoreSim full-system and gem5 SE on a 120k-instruction
   x264 region ELFie (Table IV). Inputs are captured and converted once;
   each leg is timed best-of-5, legs interleaved and their order
   alternating per round. Mins/s is simulated (or, for the end
   condition, recorded) instructions per wall second. *)

let sim_rounds = 5

let sim_bench () =
  print_endline "=== Simulator microbenchmark (Fig. 11 / Table IV legs) ===";
  let module Sniper = Elfie_sniper.Sniper in
  let module Coresim = Elfie_coresim.Coresim in
  let module Gem5 = Elfie_gem5.Gem5 in
  let module Fig11 = Elfie_harness.Exp_fig11 in
  let module P2e = Elfie_core.Pinball2elf in
  let module Logger = Elfie_pin.Logger in
  let module Sysstate = Elfie_pin.Sysstate in
  let module Programs = Elfie_workloads.Programs in
  let workdir = "/work" in
  let region_of (b : Elfie_workloads.Suite.benchmark) length =
    { Logger.start = Int64.div (Programs.approx_instructions b.spec) 3L; length }
  in
  let convert ?(arm_counters = true) marker pinball =
    let ss = Sysstate.analyze pinball in
    let options =
      { P2e.default_options with sysstate = Some ss; marker = Some marker; arm_counters }
    in
    (P2e.convert ~options pinball, fun fs -> Sysstate.install ss fs ~workdir)
  in
  (* Fig. 11: fine time-slicing capture, as e2ebench and Exp_fig11. *)
  let mt = List.hd Elfie_workloads.Suite.spec2017_speed_mt in
  let mt_rs = Programs.run_spec mt.spec in
  let mt_region = region_of mt 240_000L in
  let mt_pb =
    (Logger.capture
       ~scheduler:
         (Elfie_machine.Machine.Free
            { seed = mt_rs.Elfie_pin.Run.seed; quantum_min = 10; quantum_max = 30 })
       mt_rs ~name:"bench_sim_mt" mt_region)
      .Logger.pinball
  in
  let recorded = Elfie_pinball.Pinball.total_icount mt_pb in
  let ec = Fig11.pick_end_condition mt_pb mt_rs.Elfie_pin.Run.image in
  (* No armed counters: the end condition alone ends the ELFie run. *)
  let mt_elfie, mt_fs = convert ~arm_counters:false P2e.Sniper mt_pb in
  (* Table IV: the x264 region ELFie. *)
  let x264 = Option.get (Elfie_workloads.Suite.find "525.x264_r") in
  let x_pb =
    (Logger.capture (Programs.run_spec x264.spec) ~name:"bench_sim_x264"
       (region_of x264 120_000L))
      .Logger.pinball
  in
  let x_elfie, x_fs = convert (P2e.Ssc 0x4649L) x_pb in
  let legs =
    [
      ( "sniper/pinball/" ^ mt.bname,
        fun () -> (Sniper.simulate_pinball Fig11.config mt_pb).Sniper.instructions );
      ( "sniper/end_condition/" ^ mt.bname,
        fun () ->
          ignore (Fig11.pick_end_condition mt_pb mt_rs.Elfie_pin.Run.image);
          recorded );
      ( "sniper/elfie/" ^ mt.bname,
        fun () ->
          (Sniper.simulate_elfie ~end_condition:ec ~fs_init:mt_fs ~cwd:workdir
             ~max_ins:(Int64.mul 20L mt_region.length) Fig11.config mt_elfie)
            .Sniper.instructions );
      ( "coresim/full/" ^ x264.bname,
        fun () ->
          let r =
            Coresim.simulate ~mode:Coresim.Full_system ~fs_init:x_fs ~cwd:workdir
              Coresim.skylake x_elfie
          in
          Int64.add r.Coresim.user_instructions r.Coresim.kernel_instructions );
      ( "gem5/se/" ^ x264.bname,
        fun () ->
          (Gem5.simulate_se ~fs_init:x_fs ~cwd:workdir Gem5.nehalem x_elfie)
            .Gem5.instructions );
    ]
  in
  let best = Array.make (List.length legs) infinity in
  let sim_ins = Array.make (List.length legs) 0L in
  let indexed = List.mapi (fun i leg -> (i, leg)) legs in
  for r = 0 to sim_rounds - 1 do
    List.iter
      (fun (i, (_, leg)) ->
        let t0 = Unix.gettimeofday () in
        sim_ins.(i) <- leg ();
        best.(i) <- Float.min best.(i) (Unix.gettimeofday () -. t0))
      (if r land 1 = 0 then indexed else List.rev indexed)
  done;
  let rows =
    List.map
      (fun (i, (name, _)) ->
        let mips = Int64.to_float sim_ins.(i) /. best.(i) /. 1e6 in
        Printf.printf "%-34s %8.1f ms  %9Ld ins  %6.2f Mins/s  (best of %d)\n%!"
          name (1000. *. best.(i)) sim_ins.(i) mips sim_rounds;
        Printf.sprintf
          "    { \"name\": \"%s\", \"wall_s\": %.6f, \"sim_ins\": %Ld, \
           \"sim_mips\": %.3f, \"rounds\": %d }"
          (json_escape name) best.(i) sim_ins.(i) mips sim_rounds)
      indexed
  in
  let oc = open_out "BENCH_sim.json" in
  Printf.fprintf oc "{\n  \"benchmarks\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" rows);
  close_out oc;
  print_endline "wrote BENCH_sim.json\n"

(* --- Farm store microbenchmark (BENCH_farm.json) -----------------------

   The same small manifest run twice against one artifact store: the
   cold pass computes and commits every stage, the warm pass must be
   served entirely from cache — no program execution at all. Wall time
   plus the store hit/miss counters (and the loader-run counter, which
   must not move on the warm pass) are written to BENCH_farm.json. *)

let farm_manifest =
  "leela bench=541.leela_r max-k=4 warmup=1000 trials=1 regions=2\n\
   mcf bench=505.mcf_r max-k=4 warmup=1000 trials=1 regions=2\n"

let farm_bench () =
  print_endline "=== Farm store microbenchmark (cold vs warm cache) ===";
  let module Metrics = Elfie_obs.Metrics in
  let m_hits = Metrics.counter "elfie_store_hits_total" in
  let m_misses = Metrics.counter "elfie_store_misses_total" in
  let m_loader = Metrics.counter "elfie_loader_runs_total" in
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "elfie_bench_farm.%d" (Unix.getpid ()))
  in
  let jobs =
    match Elfie_farm.Driver.manifest_of_string ~artifact:"bench" farm_manifest
    with
    | Ok jobs -> jobs
    | Error d -> Fmt.failwith "farm bench manifest: %a" Elfie_util.Diag.pp d
  in
  let store = Elfie_farm.Store.open_store root in
  let pass name =
    let h0 = Metrics.total m_hits
    and m0 = Metrics.total m_misses
    and r0 = Metrics.total m_loader in
    let t0 = Unix.gettimeofday () in
    let batch = Elfie_farm.Driver.run ~store jobs in
    let wall = Unix.gettimeofday () -. t0 in
    let hits = int_of_float (Metrics.total m_hits -. h0)
    and misses = int_of_float (Metrics.total m_misses -. m0)
    and runs = int_of_float (Metrics.total m_loader -. r0) in
    Printf.printf
      "%-26s %8.3f s  %4d hit(s) %4d miss(es) %4d program run(s)\n%!"
      name wall hits misses runs;
    if batch.Elfie_farm.Driver.b_quarantined > 0 then
      Printf.printf "WARNING: %d job(s) quarantined\n%!"
        batch.Elfie_farm.Driver.b_quarantined;
    Printf.sprintf
      "    { \"name\": \"%s\", \"wall_s\": %.6f, \"hits\": %d, \"misses\": \
       %d, \"program_runs\": %d }"
      (json_escape name) wall hits misses runs
  in
  let cold = pass "farm/cold-cache" in
  let warm = pass "farm/warm-cache" in
  let oc = open_out "BENCH_farm.json" in
  Printf.fprintf oc "{\n  \"benchmarks\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" [ cold; warm ]);
  close_out oc;
  print_endline "wrote BENCH_farm.json\n"

let tiny_spec ?(threads = 1) name =
  Elfie_workloads.Programs.spec
    ~phases:
      [ { kernel = Elfie_workloads.Kernels.Stream; reps = 1500 };
        { kernel = Elfie_workloads.Kernels.Branchy; reps = 1200 } ]
    ~outer_reps:6 ~threads ~ws_bytes:32768 name

let tiny_rs ?threads name =
  Elfie_workloads.Programs.run_spec (tiny_spec ?threads name)

(* Shared inputs, built once. *)
let pinball =
  lazy
    ((Elfie_pin.Logger.capture (tiny_rs "bench") ~name:"bench"
        { Elfie_pin.Logger.start = 20_000L; length = 20_000L })
       .Elfie_pin.Logger.pinball)

let elfie_image =
  lazy
    (let pb = Lazy.force pinball in
     Elfie_core.Pinball2elf.convert
       ~options:
         { Elfie_core.Pinball2elf.default_options with
           marker = Some (Elfie_core.Pinball2elf.Ssc 1L) }
       pb)

let profile_points =
  lazy
    (let profile = Elfie_pin.Bbv.profile (tiny_rs "bench_bbv") ~slice_size:5_000L in
     Array.of_list
       (List.map
          (Elfie_simpoint.Simpoint.project ~dims:15)
          profile.Elfie_pin.Bbv.slices))

(* table1: PinPlay logging (the overhead being measured in Table I). *)
let bench_table1 =
  Test.make ~name:"table1/pinplay-log-20k-region"
    (Staged.stage (fun () ->
         ignore
           (Elfie_pin.Logger.capture (tiny_rs "t1") ~name:"t1"
              { Elfie_pin.Logger.start = 5_000L; length = 20_000L })))

(* fig9: native hardware measurement of a region ELFie. *)
let bench_fig9 =
  Test.make ~name:"fig9/native-elfie-run"
    (Staged.stage (fun () ->
         ignore (Elfie_core.Elfie_runner.run (Lazy.force elfie_image))))

(* table2: whole-program native run (the validation baseline). *)
let bench_table2 =
  Test.make ~name:"table2/native-whole-program"
    (Staged.stage (fun () -> ignore (Elfie_pin.Run.native (tiny_rs "t2"))))

(* table3 & fig10: SimPoint clustering. *)
let bench_fig10 =
  Test.make ~name:"fig10/kmeans-phase-clustering"
    (Staged.stage (fun () ->
         let rng = Elfie_util.Rng.create 7L in
         ignore
           (Elfie_simpoint.Kmeans.best ~rng ~max_k:10 (Lazy.force profile_points))))

(* fig11: constrained pinball simulation under Sniper. *)
let bench_fig11 =
  Test.make ~name:"fig11/sniper-pinball-sim"
    (Staged.stage (fun () ->
         ignore
           (Elfie_sniper.Sniper.simulate_pinball
              (Elfie_sniper.Sniper.gainestown ~cores:8)
              (Lazy.force pinball))))

(* table4: full-system CoreSim simulation of an ELFie. *)
let bench_table4 =
  Test.make ~name:"table4/coresim-full-system"
    (Staged.stage (fun () ->
         ignore
           (Elfie_coresim.Coresim.simulate ~mode:Elfie_coresim.Coresim.Full_system
              Elfie_coresim.Coresim.skylake (Lazy.force elfie_image))))

(* table5: gem5 SE-mode simulation of an ELFie. *)
let bench_table5 =
  Test.make ~name:"table5/gem5-se-sim"
    (Staged.stage (fun () ->
         ignore
           (Elfie_gem5.Gem5.simulate_se Elfie_gem5.Gem5.nehalem
              (Lazy.force elfie_image))))

(* Cross-cutting: the supervised native-run path (watchdog pintool +
   classification on top of fig9's raw run — the supervision overhead). *)
let bench_supervised =
  Test.make ~name:"supervise/native-elfie-run"
    (Staged.stage (fun () ->
         ignore
           (Elfie_supervise.Supervisor.run_elfie ~job:"bench"
              ~budget:
                { Elfie_supervise.Supervisor.ins = Some 100_000_000L;
                  wall_s = Some 30.0 }
              (Lazy.force elfie_image))))

(* Cross-cutting: pinball -> ELF conversion and ELF codec. *)
let bench_convert =
  Test.make ~name:"core/pinball2elf-convert"
    (Staged.stage (fun () ->
         ignore (Elfie_core.Pinball2elf.convert (Lazy.force pinball))))

let bench_elf_codec =
  Test.make ~name:"core/elf-write-read"
    (Staged.stage (fun () ->
         let img = Lazy.force elfie_image in
         ignore (Elfie_elf.Image.read (Elfie_elf.Image.write img))))

let tests =
  Test.make_grouped ~name:"elfie"
    [ bench_table1; bench_fig9; bench_table2; bench_fig10; bench_fig11;
      bench_table4; bench_table5; bench_supervised; bench_convert;
      bench_elf_codec ]

let run_benchmarks () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw_results = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let results = Analyze.merge ols instances results in
  Printf.printf "%-38s %16s\n" "micro-benchmark" "time/run";
  Printf.printf "%s\n" (String.make 56 '-');
  Hashtbl.iter
    (fun measure tbl ->
      if measure = Measure.label Instance.monotonic_clock then
        Hashtbl.iter
          (fun name ols_result ->
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] ->
                let human =
                  if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
                  else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
                  else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
                  else Printf.sprintf "%.0f ns" est
                in
                Printf.printf "%-38s %16s\n" name human
            | _ -> ())
          tbl)
    results;
  print_newline ()

let () =
  let jobs = ref 0 in
  let core_only = ref false in
  let simpoint_only = ref false in
  let farm_only = ref false in
  let snapshot_only = ref false in
  let capture_only = ref false in
  let sim_only = ref false in
  let rec parse = function
    | "--jobs" :: n :: rest ->
        jobs := (try int_of_string n with _ -> 0);
        parse rest
    | "--core-only" :: rest ->
        core_only := true;
        parse rest
    | "--simpoint" :: rest | "--simpoint-only" :: rest ->
        simpoint_only := true;
        parse rest
    | "--farm" :: rest | "--farm-only" :: rest ->
        farm_only := true;
        parse rest
    | "--snapshot" :: rest | "--snapshot-only" :: rest ->
        snapshot_only := true;
        parse rest
    | "--capture" :: rest | "--capture-only" :: rest ->
        capture_only := true;
        parse rest
    | "--sim" :: rest | "--sim-only" :: rest ->
        sim_only := true;
        parse rest
    | "--core-kernel" :: k :: rest ->
        (* Diagnostic: run the core microbenchmark on a single kernel
           (implies --core-only). *)
        (match
           List.find_opt
             (fun kn -> Elfie_workloads.Kernels.name kn = k)
             Elfie_workloads.Kernels.all
         with
        | Some kn ->
            core_kernels :=
              [ { Elfie_workloads.Programs.kernel = kn; reps = 8000 } ];
            core_only := true
        | None ->
            Printf.eprintf "unknown kernel %s (known kernels: %s)\n" k
              (String.concat ", "
                 (List.map Elfie_workloads.Kernels.name
                    Elfie_workloads.Kernels.all));
            exit 2);
        parse rest
    | _ :: rest -> parse rest
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  Elfie_util.Pool.set_default_jobs
    (if !jobs <= 0 then Elfie_util.Pool.recommended () else !jobs);
  if !simpoint_only then begin
    simpoint_bench ();
    exit 0
  end;
  if !farm_only then begin
    farm_bench ();
    exit 0
  end;
  if !snapshot_only then begin
    snapshot_bench ();
    exit 0
  end;
  if !capture_only then begin
    capture_bench ();
    exit 0
  end;
  if !sim_only then begin
    sim_bench ();
    exit 0
  end;
  core_bench ();
  if !core_only then exit 0;
  simpoint_bench ();
  snapshot_bench ();
  capture_bench ();
  sim_bench ();
  farm_bench ();
  print_endline "=== Bechamel micro-benchmarks (one per table/figure) ===";
  run_benchmarks ();
  print_endline "=== Paper evaluation: every table and figure ===\n";
  (* Each phase runs as a supervised job: a crashing experiment is
     classified and quarantined instead of aborting the run, and the
     per-phase timing table below comes from the supervisor reports. *)
  let module Supervisor = Elfie_supervise.Supervisor in
  let module Trace = Elfie_obs.Trace in
  let module Metrics = Elfie_obs.Metrics in
  (* Observability snapshot per phase: how many trace events and native
     runner invocations each experiment generated, read back as deltas of
     the process-global tracer/metrics counters around its exec. *)
  let m_loader = Metrics.counter "elfie_loader_runs_total" in
  let obs_deltas : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  let specs =
    List.map
      (fun (e : Elfie_harness.Registry.experiment) ->
        {
          Supervisor.name = e.id;
          job_inputs = [ e.id; e.title ];
          exec =
            (fun ~seed:_ ~max_ins:_ ->
              Printf.printf "=== %s: %s ===\n%!" e.id e.title;
              let events0 = Trace.emitted () in
              let runs0 = Metrics.total m_loader in
              print_string (e.run ());
              print_newline ();
              Hashtbl.replace obs_deltas e.id
                ( Trace.emitted () - events0,
                  int_of_float (Metrics.total m_loader -. runs0) );
              ((), Elfie_supervise.Classify.Graceful));
        })
      Elfie_harness.Registry.all
  in
  let results = Supervisor.run_batch specs in
  Printf.printf "=== Per-phase supervised timings ===\n";
  Printf.printf "%-10s %-14s %9s %10s %8s %8s\n" "phase" "classification"
    "attempts" "wall" "events" "runs";
  Printf.printf "%s\n" (String.make 65 '-');
  List.iter
    (fun (name, (r : Supervisor.report), _) ->
      let events, runs =
        Option.value ~default:(0, 0) (Hashtbl.find_opt obs_deltas name)
      in
      Printf.printf "%-10s %-14s %9d %9.1fs %8d %8d\n" name
        (Elfie_supervise.Classify.to_string r.final)
        (List.length r.attempts) r.total_wall_s events runs)
    results
