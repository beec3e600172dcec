(* Table I: pinball / ELFie property comparison, including the run-time
   overhead of logging and constrained replay relative to a native run,
   measured in host wall-clock on one single-threaded and one
   multi-threaded workload. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

type overhead = { log_x : float; replay_x : float }

let measure_overhead (b : Elfie_workloads.Suite.benchmark) =
  let rs = Elfie_workloads.Programs.run_spec b.spec in
  let stats, t_native = time (fun () -> Elfie_pin.Run.native rs) in
  (* Log (almost) the whole execution as one region. *)
  let length = Int64.sub stats.Elfie_pin.Run.retired 2_000L in
  let result, t_log =
    time (fun () ->
        Elfie_pin.Logger.capture rs ~name:(b.bname ^ "_whole")
          { Elfie_pin.Logger.start = 1_000L; length })
  in
  let _, t_replay =
    time (fun () -> Elfie_pin.Replayer.replay result.Elfie_pin.Logger.pinball)
  in
  { log_x = t_log /. t_native; replay_x = t_replay /. t_native }

let qualitative =
  [ [ ""; "pinballs"; "ELFies" ];
    [ "Allow constrained replay"; "Yes"; "No" ];
    [ "Work across OSes"; "Yes"; "No (Linux-model only)" ];
    [ "Handle all system calls"; "Yes"; "Most (stateless ones)" ];
    [ "Allow symbolic debugging"; "Yes"; "No (symbols for startup only)" ];
    [ "Run natively"; "No"; "Yes" ];
    [ "Exit gracefully"; "Yes"; "Yes (perf counters)" ];
    [ "Run with simulators"; "Yes (modified)"; "Yes (unmodified)" ] ]

let run () =
  let st = measure_overhead (List.nth Elfie_workloads.Suite.spec2017_int_train 5) in
  let mt = measure_overhead (List.hd Elfie_workloads.Suite.spec2017_speed_mt) in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "Table I: pinball vs ELFie\n\n";
  Buffer.add_string buf
    (Render.table ~header:(List.hd qualitative) (List.tl qualitative));
  Buffer.add_string buf "\nMeasured run-time overhead over a native run:\n";
  Buffer.add_string buf
    (Render.table
       ~header:[ "workload"; "PinPlay logging"; "constrained replay"; "ELFie" ]
       [ [ "single-threaded (525.x264_r)"; Printf.sprintf "%.1fx" st.log_x;
           Printf.sprintf "%.1fx" st.replay_x; "~1x (startup only)" ];
         [ "multi-threaded (603.bwaves_s)"; Printf.sprintf "%.1fx" mt.log_x;
           Printf.sprintf "%.1fx" mt.replay_x; "~1x (startup only)" ] ]);
  Buffer.add_string buf
    "\nNote: the paper reports ~15x (ST) / ~40x (MT) for constrained replay\n\
     because Pin JIT-instruments a real processor; here both sides run on\n\
     the same interpreter, and Vpin has no JIT cost. A fat capture attaches\n\
     no instrumentation, so logging pays only for the copy-on-write\n\
     region-start snapshot and the syscall and schedule records, and runs\n\
     at about native speed. Only the ordering ELFie ~ native is meaningful.\n";
  Buffer.contents buf
