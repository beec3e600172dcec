(* Command line of the end-to-end benchmark. Run from the repository
   root:

     dune exec ./e2ebench/main.exe -- --workload ref-mem --seed 0 \
       --seconds 35 --trace 0

   It prints every simulated statistic of the run ("stat" lines, so two
   commits compare exactly), then one JSON result line. *)

module Bench = E2ebench.Bench

let () =
  let workload = ref "" and seed = ref 0L and seconds = ref 35.0 in
  let trace = ref 0 in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        " one of: " ^ String.concat ", " (List.map fst E2ebench.E2e.workloads)
      );
      ( "--seed",
        Arg.String (fun s -> seed := Int64.of_string s),
        " workload seed (default 0: the paper experiments' seeds)" );
      ("--seconds", Arg.Set_float seconds, " measured time (default 35)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer");
    ]
  in
  let usage =
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]"
  in
  Arg.parse (Arg.align spec)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.assoc_opt !workload E2ebench.E2e.workloads with
  | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  | Some w when !trace = 0 || !trace = 1 ->
      let trace = !trace = 1 in
      let o = Bench.run w ~seed:!seed ~seconds:!seconds ~trace in
      let lines = List.map (fun (k, v) -> k ^ " " ^ v) o.stats in
      List.iter (Printf.printf "stat %s\n") lines;
      Printf.printf "stats-digest %s\n"
        (Digest.to_hex (Digest.string (String.concat "\n" lines)));
      List.iter prerr_endline o.notes;
      print_endline (Elfie_obs.Json.to_string (Bench.to_json ~trace o))
  | Some _ ->
      prerr_endline "--trace takes 0 or 1";
      exit 2
