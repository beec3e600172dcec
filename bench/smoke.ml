(* Chain-tier smoke test, run from `dune runtest` via the @bench-smoke
   alias: a tiny deterministic loop kernel executed both on the
   superblock chain tier and on the per-instruction interpreter (a no-op
   [on_ins] hook sends every block there). Guards against silent
   chain-tier regressions — the chained run must actually build
   superblocks, retire the identical instruction stream, and be at least
   [min_speedup] times faster than the interpreter. The workload is
   small enough for CI (a few hundred thousand instructions per leg) and
   the expected gap is large (about 2.8x on a 2-core container), so a
   best-of-N wall-clock comparison at 1.5x is robust against scheduler
   noise. *)

module Machine = Elfie_machine.Machine

let max_ins = 400_000L
let trials = 5
let min_speedup = 1.5

let spec =
  Elfie_workloads.Programs.spec
    ~phases:
      [ { Elfie_workloads.Programs.kernel = Elfie_workloads.Kernels.Stream;
          reps = 4000 } ]
    ~outer_reps:50 ~threads:1 ~ws_bytes:65536 "bench-smoke"

let run ~per_ins =
  let rs = Elfie_workloads.Programs.run_spec ~seed:7L spec in
  let machine, _kernel = Elfie_pin.Run.instantiate rs in
  if per_ins then (Machine.hooks machine).Machine.on_ins <- Some (fun _ _ _ -> ());
  let t0 = Unix.gettimeofday () in
  Machine.run ~max_ins machine;
  let wall = Unix.gettimeofday () -. t0 in
  (Machine.total_retired machine, (Machine.chain_stats machine).Machine.superblocks_built, wall)

let () =
  let best_chain = ref infinity and best_interp = ref infinity in
  let retired_chain = ref 0L and retired_interp = ref 0L in
  let built = ref 0 in
  (* Interleaved trials, as in the full core bench, so neither leg
     systematically benefits from warm-up. *)
  for _ = 1 to trials do
    let r, _, w = run ~per_ins:true in
    retired_interp := r;
    if w < !best_interp then best_interp := w;
    let r, b, w = run ~per_ins:false in
    retired_chain := r;
    built := b;
    if w < !best_chain then best_chain := w
  done;
  let fail = ref false in
  let check name ok =
    Printf.printf "%-44s %s\n" name (if ok then "ok" else "FAIL");
    if not ok then fail := true
  in
  Printf.printf "bench-smoke: per-ins %.1f ms, chained %.1f ms (%.1fx, best of %d)\n"
    (1000. *. !best_interp) (1000. *. !best_chain)
    (!best_interp /. !best_chain) trials;
  check "chained and per-ins retire the same stream"
    (Int64.equal !retired_chain !retired_interp && Int64.compare !retired_chain 0L > 0);
  check "chained run built superblocks" (!built > 0);
  check
    (Printf.sprintf "chained >= %.1fx per-ins throughput" min_speedup)
    (!best_chain *. min_speedup <= !best_interp);
  if !fail then exit 1
