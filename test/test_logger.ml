(* Differential tests of the PinPlay logger against the hooked, copying
   oracle in logger_oracle.ml: every case captures with both, fat and
   lean, and requires equal, byte-identical pinballs. Plus the logger's
   observability: the capture span and the hooked-instruction counter
   that shows the tracker is attached only inside lean windows. *)

open Elfie_isa
open Elfie_pin
module Pinball = Elfie_pinball.Pinball
module Metrics = Elfie_obs.Metrics
module Trace = Elfie_obs.Trace

let region start length = { Logger.start; length }

(* Capture [requests] with the library logger and with the oracle, fat
   and lean, and require identical batches. *)
let agree ?scheduler rs requests =
  let oracle_requests =
    List.map
      (fun (name, (r : Logger.region)) ->
        (name, { Logger_oracle.start = r.start; length = r.length }))
      requests
  in
  List.iter
    (fun fat ->
      let mode = if fat then "fat" else "lean" in
      let got = Logger.capture_many ~fat ?scheduler rs requests in
      let want = Logger_oracle.capture_many ~fat ?scheduler rs oracle_requests in
      Alcotest.(check bool) (mode ^ ": captured some region") true (got <> []);
      Alcotest.(check (list string))
        (mode ^ ": same regions") (List.map fst want) (List.map fst got);
      List.iter2
        (fun (name, (g : Logger.result)) (_, (w : Logger_oracle.result)) ->
          let what = Printf.sprintf "%s %s" mode name in
          Alcotest.(check bool)
            (what ^ " reached_end") w.reached_end g.reached_end;
          Alcotest.(check bool)
            (what ^ " equals oracle") true (Pinball.equal w.pinball g.pinball);
          Alcotest.(check (list (pair string string)))
            (what ^ " byte-identical") (Pinball.to_files w.pinball)
            (Pinball.to_files g.pinball))
        got want)
    [ true; false ]

let test_single_region () =
  agree (Tutil.tiny_run_spec "or-single") [ ("r", region 20_000L 30_000L) ]

let test_batched_overlapping () =
  (* Nested, overlapping, abutting and disjoint windows in one run. *)
  agree
    (Tutil.tiny_run_spec "or-batch")
    [ ("a", region 15_000L 20_000L); ("b", region 25_000L 30_000L);
      ("c", region 28_000L 4_000L); ("d", region 35_000L 5_000L);
      ("e", region 60_000L 10_000L) ]

let test_eight_threads_fine_quantum () =
  let rs = Tutil.tiny_run_spec ~threads:8 "or-mt" in
  let scheduler =
    Elfie_machine.Machine.Free { seed = 5L; quantum_min = 10; quantum_max = 30 }
  in
  let x = region 40_000L 20_000L in
  agree ~scheduler rs [ ("x", x); ("y", region 50_000L 30_000L) ];
  Alcotest.(check int)
    "all threads live at region start" 8
    (Pinball.num_threads (Logger.capture ~scheduler rs ~name:"x" x).Logger.pinball)

(* A loop calls [f] (`mov rbx, imm; ret`) and accumulates RBX; halfway
   through it patches [f]'s immediate byte through a plain store.
   Mov_ri encodes as opcode, register, little-endian u64, so the
   immediate's low byte is at offset 2. *)
let smc_spec () =
  let open Insn in
  let b = Builder.create () in
  let f = Builder.new_label b and loop = Builder.new_label b in
  let no_patch = Builder.new_label b in
  Builder.ins b (Mov_ri (Reg.RSI, 0L));
  Builder.ins b (Mov_ri (Reg.RDI, 4_000L));
  Builder.bind b loop;
  Builder.call b f;
  Builder.ins b (Alu_rr (Add, Reg.RSI, Reg.RBX));
  Builder.ins b (Alu_ri (Cmp, Reg.RDI, 2_000L));
  Builder.jcc b Ne no_patch;
  Builder.ins b (Mov_ri (Reg.RCX, 2L));
  Builder.mov_label b Reg.RDX f;
  Builder.ins b
    (Store (W8, { base = Some Reg.RDX; index = None; scale = 1; disp = 2L }, Reg.RCX));
  Builder.bind b no_patch;
  Builder.ins b (Alu_ri (Sub, Reg.RDI, 1L));
  Builder.jcc b Ne loop;
  Builder.ins b (Mov_ri (Reg.RDI, 0L));
  Builder.ins b
    (Mov_ri (Reg.RAX, Int64.of_int Elfie_kernel.Abi.sys_exit_group));
  Builder.ins b Syscall;
  Builder.bind b f;
  Builder.ins b (Mov_ri (Reg.RBX, 1L));
  Builder.ins b Ret;
  Run.spec (Tutil.image_of b)

let test_self_patching_code () =
  let rs = smc_spec () in
  let total = (Run.native rs).Run.retired in
  (* The patch lands at the loop's midpoint, inside both windows. *)
  agree rs
    [ ("smc", region (Int64.div total 4L) (Int64.div total 2L));
      ("late", region (Int64.div total 3L) (Int64.div total 3L)) ]

(* Memory at aggregate instruction [n] of a single-threaded run. *)
let pages_at rs n =
  let machine, _ = Run.instantiate rs in
  Elfie_machine.Machine.run ~max_ins:n machine;
  Elfie_machine.Addr_space.pages (Elfie_machine.Machine.mem machine)

let test_pages_written_after_start () =
  let rs = Tutil.tiny_run_spec "or-cow" in
  let r = region 20_000L 30_000L in
  agree rs [ ("w", r); ("w2", region 35_000L 20_000L) ];
  (* The case is only meaningful if the program writes pages the frozen
     snapshot shares with the running machine: region-start bytes must
     differ from region-end bytes somewhere. *)
  let pb = (Logger.capture rs ~name:"w" r).Logger.pinball in
  let at_end = pages_at rs (Int64.add r.start r.length) in
  let changed =
    List.filter
      (fun (addr, data) ->
        match List.assoc_opt addr at_end with
        | Some later -> not (Bytes.equal data later)
        | None -> false)
      pb.Pinball.pages
  in
  Alcotest.(check bool) "region wrote pages after the freeze" true (changed <> []);
  Alcotest.(check bool)
    "snapshot holds region-start bytes" true
    (List.equal
       (fun (a, p) (b, q) -> a = b && Bytes.equal p q)
       (pages_at rs r.start) pb.Pinball.pages)

let test_exit_mid_region () =
  let rs = Tutil.tiny_run_spec "or-exit" in
  agree rs
    [ ("tail", region 20_000L 50_000_000L); ("ok", region 20_000L 5_000L);
      ("never", region 90_000_000L 10L) ]

(* --- observability ------------------------------------------------------- *)

let m_hooked = Metrics.counter "elfie_logger_hooked_instructions_total"
let m_sb_built = Metrics.counter "elfie_core_superblocks_built"

let branchy_spec () =
  Elfie_workloads.Programs.run_spec ~seed:3L
    (Elfie_workloads.Programs.spec
       ~phases:
         [ { Elfie_workloads.Programs.kernel = Elfie_workloads.Kernels.Branchy;
             reps = 3000 } ]
       ~outer_reps:4 ~threads:1 ~ws_bytes:32768 "obs-branchy")

let deltas f =
  let h0 = Metrics.total m_hooked and sb0 = Metrics.total m_sb_built in
  f ();
  (Metrics.total m_hooked -. h0, Metrics.total m_sb_built -. sb0)

let test_fat_capture_is_hook_free () =
  let rs = branchy_spec () in
  let hooked, sb =
    deltas (fun () ->
        ignore
          (Logger.capture_many rs
             [ ("a", region 10_000L 20_000L); ("b", region 40_000L 20_000L) ]))
  in
  Alcotest.(check (float 0.)) "no hooked instructions" 0. hooked;
  Alcotest.(check bool) "capture ran on the chain tier" true (sb > 0.)

let test_lean_capture_hooks_only_windows () =
  let rs = branchy_spec () in
  let hooked, _ =
    deltas (fun () ->
        ignore
          (Logger.capture_many ~fat:false rs
             [ ("a", region 10_000L 20_000L); ("b", region 25_000L 10_000L);
               ("c", region 50_000L 5_000L) ]))
  in
  (* The union of the windows: [10k, 35k) and [50k, 55k). *)
  Alcotest.(check (float 0.)) "hooked = union of windows" 30_000. hooked

let test_capture_span () =
  let was_enabled = Trace.enabled () in
  Trace.set_enabled true;
  Trace.reset ();
  Fun.protect ~finally:(fun () -> Trace.set_enabled was_enabled) @@ fun () ->
  ignore
    (Logger.capture_many ~fat:false (branchy_spec ())
       [ ("a", region 10_000L 2_000L); ("b", region 20_000L 3_000L) ]);
  match List.filter (fun e -> Trace.event_name e = "logger.capture") (Trace.events ()) with
  | [ e ] ->
      Alcotest.(check bool) "regions" true (Trace.attr e "regions" = Some (Trace.I 2L));
      Alcotest.(check bool) "fat" true (Trace.attr e "fat" = Some (Trace.B false));
      Alcotest.(check bool)
        "hooked_instructions" true
        (Trace.attr e "hooked_instructions" = Some (Trace.I 5_000L))
  | _ -> Alcotest.fail "expected one logger.capture span"

let suite =
  [ Alcotest.test_case "oracle: single region" `Quick test_single_region;
    Alcotest.test_case "oracle: batched overlapping regions" `Quick
      test_batched_overlapping;
    Alcotest.test_case "oracle: 8 threads, fine quantum" `Quick
      test_eight_threads_fine_quantum;
    Alcotest.test_case "oracle: self-patching code" `Quick test_self_patching_code;
    Alcotest.test_case "oracle: pages written after start" `Quick
      test_pages_written_after_start;
    Alcotest.test_case "oracle: exit mid-region" `Quick test_exit_mid_region;
    Alcotest.test_case "fat capture is hook-free" `Quick
      test_fat_capture_is_hook_free;
    Alcotest.test_case "lean capture hooks only windows" `Quick
      test_lean_capture_hooks_only_windows;
    Alcotest.test_case "capture span" `Quick test_capture_span ]
