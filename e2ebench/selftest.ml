(* The benchmark's own test: one round (an untraced and a traced pass)
   of every workload must emit exactly the metrics BENCHMARK.json names,
   with their units, in a result line that parses back, and must pass
   its output checks. At the default seed sim-mt must reproduce the
   Fig. 11 experiment. Run with `dune build @e2ebench/selftest`. *)

module Json = Elfie_obs.Json
module Bench = E2ebench.Bench
module E2e = E2ebench.E2e
module Fig11 = Elfie_harness.Exp_fig11

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 1)
    fmt

let field key j =
  match Json.member key j with
  | Some v -> v
  | None -> fail "missing key %s" key

(* (name, unit) of every metric of a BENCHMARK.json section. *)
let declared section spec =
  match Json.to_list (field section spec) with
  | None -> fail "%s is not a list" section
  | Some l ->
      List.map
        (fun m ->
          match
            (Json.to_str (field "name" m), Json.to_str (field "unit" m))
          with
          | Some n, Some u -> (n, u)
          | _ -> fail "malformed %s entry" section)
        l

(* The result line, parsed back: metric name -> (value, unit). *)
let parse_result ~workload line =
  let j =
    match Json.parse line with
    | Ok j -> j
    | Error e -> fail "%s: result does not parse: %s" workload e
  in
  (match Json.member "correct" j with
  | Some (Json.Bool true) -> ()
  | _ -> fail "%s: output checks failed" workload);
  let count key =
    match Json.to_float (field key j) with
    | Some v when Float.is_integer v -> int_of_float v
    | _ -> fail "%s: %s is not a whole number" workload key
  in
  if count "attempted" < 1 then fail "%s: no operations attempted" workload;
  if count "failed" <> 0 then fail "%s: operations failed" workload;
  match field "metrics" j with
  | Json.Obj members ->
      List.map
        (fun (name, m) ->
          match
            (Json.to_float (field "value" m), Json.to_str (field "unit" m))
          with
          | Some v, Some u -> (name, (v, u))
          | _ -> fail "%s: metric %s lacks a value or unit" workload name)
        members
  | _ -> fail "%s: metrics is not an object" workload

let check_names ~workload ~section expected got =
  let got_names =
    List.sort compare (List.map (fun (n, (_, u)) -> (n, u)) got)
  in
  if got_names <> List.sort compare expected then
    fail "%s: %s metrics differ from BENCHMARK.json: got %s" workload section
      (String.concat ", " (List.map fst got_names))

(* Fig. 11b's mean gap, from the experiment itself. *)
let fig11_gap () =
  let rows = Lazy.force Fig11.results in
  let gap (r : Fig11.row) =
    Float.abs (r.elfie_runtime_mcyc -. r.pb_runtime_mcyc) /. r.pb_runtime_mcyc
  in
  100.0
  *. List.fold_left (fun a r -> a +. gap r) 0.0 rows
  /. float_of_int (List.length rows)

let () =
  let spec =
    match
      Json.parse (In_channel.with_open_bin Sys.argv.(1) In_channel.input_all)
    with
    | Ok j -> j
    | Error e -> fail "BENCHMARK.json: %s" e
  in
  List.iter
    (fun (workload, w) ->
      let o = Bench.run w ~seed:0L ~seconds:0.0 ~trace:true in
      let result ~trace =
        parse_result ~workload (Json.to_string (Bench.to_json ~trace o))
      in
      let e2e = result ~trace:false and layers = result ~trace:true in
      check_names ~workload ~section:"end_to_end"
        (declared "end_to_end" spec) e2e;
      check_names ~workload ~section:"per_layer" (declared "per_layer" spec)
        layers;
      List.iter
        (fun (name, (v, _)) ->
          if not (v > 0.0) then fail "%s: %s is %g" workload name v)
        e2e;
      (* The named layers account for at least 90% of the traced pass. *)
      let value n = fst (List.assoc n layers) in
      let attributed =
        List.fold_left
          (fun acc l -> acc +. value (l ^ ".self_s"))
          0.0 Bench.layers
      in
      let unattributed = value "unattributed.self_s" in
      if unattributed > 0.1 *. (attributed +. unattributed) then
        fail "%s: %.3f s of the traced pass is unattributed" workload
          unattributed;
      if w = E2e.Sim_mt then begin
        let got = fst (List.assoc "sniper_gap_pct" e2e) in
        let want = fig11_gap () in
        if Float.abs (got -. want) > 1e-9 *. want then
          fail "sim-mt: sniper_gap_pct %.12g, Fig. 11 gives %.12g" got want
      end;
      Printf.printf "%s: ok (%d stats, %d operations)\n%!" workload
        (List.length o.Bench.stats) o.Bench.attempted)
    E2e.workloads
