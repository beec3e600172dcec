(* The measurement loop: set-up, timed passes, output checks and the
   metrics in the benchmark's JSON result. *)

module Json = Elfie_obs.Json

let now = Unix.gettimeofday

(* The [q]-quantile, interpolating linearly between order statistics. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 < n then a.(i) +. (frac *. (a.(i + 1) -. a.(i))) else a.(i)

let median = quantile 0.5

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Process high-water resident set, from /proc/self/status. *)
let peak_rss_mib () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let layers =
  [ "pin.bbv"; "simpoint"; "perf.whole"; "pin.logger"; "pin.sysstate";
    "core.pinball2elf"; "perf.region"; "supervise"; "sniper.pinball";
    "sniper.end_condition"; "sniper.elfie"; "coresim"; "gem5" ]

(* Per-layer work counters beyond calls, self time and allocation:
   metric name, unit, and how it derives from the pass's counters and
   the layer's self time. *)
let extras =
  let mips layer counter =
    ( layer,
      fun (l : Span.layer) ->
        if l.self_s > 0.0 then Span.counter counter /. l.self_s /. 1e6
        else 0.0 )
  in
  let count c = (c, fun (_ : Span.layer) -> Span.counter c) in
  [
    ("pin.bbv.guest_mips", "Mins/s", mips "pin.bbv" "pin.bbv.guest_ins");
    ( "perf.whole.guest_mips",
      "Mins/s",
      mips "perf.whole" "perf.whole.guest_ins" );
    ("pin.logger.regions", "count", count "pin.logger.regions");
    ( "pin.logger.guest_mips",
      "Mins/s",
      mips "pin.logger" "pin.logger.guest_ins" );
    ("perf.region.trials", "count", count "perf.region.trials");
    ("perf.region.trials_failed", "count", count "perf.region.trials_failed");
    ("supervise.attempts", "count", count "supervise.attempts");
    ("supervise.retries", "count", count "supervise.retries");
    ( "sniper.pinball.sim_mips",
      "Mins/s",
      mips "sniper.pinball" "sniper.pinball.sim_ins" );
    ( "sniper.end_condition.sim_mips",
      "Mins/s",
      mips "sniper.end_condition" "sniper.end_condition.sim_ins" );
    ( "sniper.elfie.sim_mips",
      "Mins/s",
      mips "sniper.elfie" "sniper.elfie.sim_ins" );
    ("coresim.sim_ins", "count", count "coresim.sim_ins");
    ("gem5.sim_ins", "count", count "gem5.sim_ins");
  ]

(* Per-layer metrics of the traced pass that just ended, before the
   pass-level [unattributed.self_s] and [trace.overhead_s]. *)
let layer_metrics () =
  List.concat_map
    (fun name ->
      let l = Span.layer name in
      [
        (name ^ ".calls", float_of_int l.calls, "count");
        (name ^ ".self_s", l.self_s, "s");
        (name ^ ".alloc_mw", l.alloc_words /. 1e6, "Mw");
      ])
    layers
  @ List.map
      (fun (metric, unit, (layer, f)) -> (metric, f (Span.layer layer), unit))
      extras

type outcome = {
  stats : (string * string) list;
      (** every simulated statistic of the first pass, as "program key" *)
  correct : bool;
  attempted : int;
  failed : int;
  end_to_end : (string * float * string) list;  (** name, value, unit *)
  per_layer : (string * float * string) list;  (** empty when untraced *)
  notes : string list;  (** human-readable summary *)
}

(* Set-up takes well under a millisecond on the ref workloads, so it is
   repeated, each time after a full major GC, and setup_s is the median. *)
let setup_repeats = 25

(** Run workload [w] for about [seconds] of passes. Without [trace]
    every pass is untraced; with it, untraced and traced passes
    alternate and the per-layer metrics are computed too. At least one
    round always runs. *)
let run w ~seed ~seconds ~trace =
  Elfie_obs.Trace.set_enabled false;
  Elfie_util.Pool.set_default_jobs 1;
  let setups =
    List.init setup_repeats (fun _ ->
        Gc.full_major ();
        let t0 = now () in
        ignore (Sys.opaque_identity (E2e.setup w));
        now () -. t0)
  in
  let inputs = E2e.setup w in
  let reference = ref None in
  let correct = ref true and attempted = ref 0 and failed = ref 0 in
  let mismatches = ref [] in
  let untraced_walls = ref [] and traced_walls = ref [] in
  let traced_metrics = ref [] in
  let one_pass ~traced =
    Span.reset ();
    Span.enabled := traced;
    let t0 = now () in
    let results =
      Fun.protect
        ~finally:(fun () -> Span.enabled := false)
        (fun () -> E2e.pass w ~seed ~traced inputs)
    in
    let wall = now () -. t0 in
    (* Every simulated statistic must repeat exactly in every pass; a
       program whose statistics differ or fail a check fails all its
       operations. *)
    List.iter
      (fun (r : E2e.result) ->
        let same =
          match !reference with
          | None -> true
          | Some ref_results -> (
              match
                List.find_opt
                  (fun (x : E2e.result) -> x.name = r.name)
                  ref_results
              with
              | Some x -> x.facts = r.facts
              | None -> false)
        in
        attempted := !attempted + r.attempted;
        if same && r.checked then failed := !failed + r.failed
        else begin
          correct := false;
          mismatches := r.name :: !mismatches;
          failed := !failed + r.attempted
        end)
      results;
    if !reference = None then reference := Some results;
    if traced then begin
      traced_walls := wall :: !traced_walls;
      traced_metrics :=
        (("unattributed.self_s", wall -. Span.attributed_s (), "s")
        :: layer_metrics ())
        :: !traced_metrics;
      Span.reset ()
    end
    else untraced_walls := wall :: !untraced_walls
  in
  let t0 = now () in
  let rec loop rounds =
    one_pass ~traced:false;
    if trace then one_pass ~traced:true;
    let elapsed = now () -. t0 in
    if elapsed *. float_of_int (rounds + 1) /. float_of_int rounds <= seconds
    then loop (rounds + 1)
  in
  loop 1;
  let results = Option.get !reference in
  let pct sel =
    100.0 *. mean (List.filter_map sel (results : E2e.result list))
  in
  let wall = median !untraced_walls in
  let walls l = String.concat " " (List.rev_map (Printf.sprintf "%.3f") l) in
  let q1 = quantile 0.25 !untraced_walls in
  let q3 = quantile 0.75 !untraced_walls in
  let per_layer =
    match !traced_metrics with
    | [] -> []
    | first :: _ as runs ->
        List.map
          (fun (name, _, unit) ->
            let value m =
              let _, v, _ = List.find (fun (n, _, _) -> n = name) m in
              v
            in
            (name, median (List.map value runs), unit))
          first
        @ [ ("trace.overhead_s", median !traced_walls -. wall, "s") ]
  in
  let end_to_end =
    [
      ("wall_s", wall, "s");
      ("setup_s", median setups, "s");
      ("peak_rss_mb", peak_rss_mib (), "MiB");
      ("cpi_error_pct", pct (fun r -> r.E2e.cpi_error), "%");
      ("coverage_pct", pct (fun r -> r.E2e.coverage), "%");
      ("sniper_gap_pct", pct (fun r -> r.E2e.sniper_gap), "%");
    ]
  in
  let notes =
    Printf.sprintf
      "untraced pass walls [%s] s: median %.3f (q1 %.3f, q3 %.3f); traced \
       pass walls [%s] s"
      (walls !untraced_walls) wall q1 q3 (walls !traced_walls)
    :: List.map
         (fun n -> "output check failed for " ^ n)
         (List.rev !mismatches)
  in
  {
    stats =
      List.concat_map
        (fun (r : E2e.result) ->
          List.map (fun (k, v) -> (r.name ^ " " ^ k, v)) r.facts)
        results;
    correct = !correct;
    attempted = !attempted;
    failed = !failed;
    end_to_end;
    per_layer;
    notes;
  }

let num v = if Float.is_finite v then Json.Num v else Json.Null

(** The result line the benchmark prints last: the per-layer metrics
    when [trace], else the end-to-end ones. *)
let to_json ~trace o =
  Json.Obj
    [
      ("correct", Json.Bool o.correct);
      ("attempted", num (float_of_int o.attempted));
      ("failed", num (float_of_int o.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, v, unit) ->
               (name, Json.Obj [ ("value", num v); ("unit", Json.Str unit) ]))
             (if trace then o.per_layer else o.end_to_end)) );
    ]
