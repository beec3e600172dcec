(* Capture smoke test, run from `dune runtest` via the @capture-smoke
   alias: a fat Logger.capture_many of three regions timed against a
   plain Run.native run of the same program. Guards against the logger
   instrumenting outside the windows it records: fat capture attaches
   no hooks, so it must stay on the machine's chain tier and cost about
   what running the program costs (it stops at the last region's end).
   With the tracker attached for the whole run, capture takes 1.6-2.7x
   a plain run (`bench --capture`, and this guard on the same workload),
   so a best-of-N comparison at margin 1.5 is robust against scheduler
   noise. *)

let rounds = 5

let rs =
  Elfie_workloads.Programs.run_spec ~seed:7L
    (Elfie_workloads.Programs.spec
       ~phases:
         [ { Elfie_workloads.Programs.kernel = Elfie_workloads.Kernels.Stream;
             reps = 2000 };
           { kernel = Elfie_workloads.Kernels.Branchy; reps = 2000 } ]
       ~outer_reps:20 ~threads:1 ~ws_bytes:32768 "capture-smoke")

let () =
  let total = (Elfie_pin.Run.native rs).Elfie_pin.Run.retired in
  let requests =
    List.map
      (fun q ->
        ( Printf.sprintf "q%d" q,
          { Elfie_pin.Logger.start = Int64.div (Int64.mul total (Int64.of_int q)) 4L;
            length = 20_000L } ))
      [ 1; 2; 3 ]
  in
  let all_reached = ref true in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let plain () = ignore (Elfie_pin.Run.native rs) in
  let capture () =
    let batch = Elfie_pin.Logger.capture_many rs requests in
    if
      List.length batch <> 3
      || List.exists (fun (_, r) -> not r.Elfie_pin.Logger.reached_end) batch
    then all_reached := false
  in
  let best_plain = ref infinity and best_capture = ref infinity in
  (* Interleaved, alternating which leg goes first each round. *)
  for r = 0 to rounds - 1 do
    let legs = [ (best_plain, plain); (best_capture, capture) ] in
    List.iter
      (fun (best, leg) -> best := min !best (time leg))
      (if r land 1 = 0 then legs else List.rev legs)
  done;
  let ratio = !best_capture /. !best_plain in
  let fail = ref false in
  let check name ok =
    Printf.printf "%-44s %s\n" name (if ok then "ok" else "FAIL");
    if not ok then fail := true
  in
  Printf.printf
    "capture-smoke: plain %.1f ms, fat capture %.1f ms (%.2fx, best of %d)\n"
    (1000. *. !best_plain) (1000. *. !best_capture) ratio rounds;
  check "every region captured to its end" !all_reached;
  check "fat capture within 1.5x a plain run" (ratio <= 1.5);
  if !fail then exit 1
