(* The ELFie farm suite (dune alias @farm, also part of the default
   test run): content-addressed keys, codec roundtrips, the store-fault
   corruption sweep, concurrent access (exactly-one-computation and
   stale-lock breaking), and the batch driver's cold/warm/resume
   behavior, including concurrent `elfied run` processes sharing one
   store — a warm second run of the same manifest must perform no
   program execution at all. *)

module Store = Elfie_farm.Store
module Codec = Elfie_farm.Codec
module Driver = Elfie_farm.Driver
module Fault_inject = Elfie_check.Fault_inject
module Journal = Elfie_supervise.Journal
module Pool = Elfie_util.Pool
module Metrics = Elfie_obs.Metrics

(* A pid guaranteed dead, forked and reaped at module init — before any
   test spawns domains (fork is not allowed with multiple domains
   running). *)
let dead_pid =
  match Unix.fork () with
  | 0 -> Unix._exit 0
  | pid ->
      ignore (Unix.waitpid [] pid);
      pid

let tmp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let tiny_spec name =
  Elfie_workloads.Programs.spec
    ~phases:
      [ { kernel = Elfie_workloads.Kernels.Stream; reps = 1500 };
        { kernel = Elfie_workloads.Kernels.Branchy; reps = 1200 } ]
    ~outer_reps:6 ~threads:1 ~ws_bytes:32768 name

let program_bytes spec =
  Bytes.to_string (Elfie_elf.Image.write (Elfie_workloads.Programs.image spec))

(* --- keys ------------------------------------------------------------------ *)

let test_key_normalization () =
  let d kind program params = Store.digest (Store.key kind ~program params) in
  Alcotest.(check string)
    "parameter order does not change the address"
    (d Store.Bbv "prog" [ ("slice", "10000"); ("seed", "7") ])
    (d Store.Bbv "prog" [ ("seed", "7"); ("slice", "10000") ]);
  Alcotest.(check bool)
    "program bytes are part of the address" true
    (d Store.Bbv "prog-a" [ ("slice", "10000") ]
    <> d Store.Bbv "prog-b" [ ("slice", "10000") ]);
  Alcotest.(check bool)
    "a changed parameter re-keys" true
    (d Store.Bbv "prog" [ ("slice", "10000") ]
    <> d Store.Bbv "prog" [ ("slice", "20000") ]);
  Alcotest.(check bool)
    "kind is part of the address" true
    (d Store.Bbv "prog" [] <> d Store.Simpoint "prog" []);
  Alcotest.(check bool)
    "escaping keeps odd values unambiguous" true
    (d Store.Bbv "prog" [ ("a", "x&b=y") ] <> d Store.Bbv "prog" [ ("a", "x"); ("b", "y") ])

let test_put_get_roundtrip () =
  let root = tmp_dir "elfie_store" in
  let store = Store.open_store root in
  let k = Store.key Store.Measurement ~program:"p" [ ("n", "1") ] in
  Alcotest.(check bool) "absent before put" false (Store.mem store k);
  let payload = String.init 300 (fun i -> Char.chr (i mod 251)) in
  Store.put store k ~format:1 payload;
  Alcotest.(check bool) "present after put" true (Store.mem store k);
  (match Store.get store k ~format:1 with
  | Some p -> Alcotest.(check string) "payload roundtrips" payload p
  | None -> Alcotest.fail "verified read failed on a fresh artifact");
  (* A format bump is version skew: quarantined, served as a miss. *)
  (match Store.get store k ~format:2 with
  | Some _ -> Alcotest.fail "format skew served"
  | None -> ());
  Alcotest.(check bool) "skew quarantined" true
    (List.exists
       (fun (q : Store.quarantine) -> q.Store.q_reason = "format-skew")
       (Store.quarantines store));
  Alcotest.(check bool) "quarantined file preserved" true
    (List.for_all
       (fun (q : Store.quarantine) -> Sys.file_exists q.Store.q_moved_to)
       (Store.quarantines store))

(* --- codecs ---------------------------------------------------------------- *)

let test_codec_roundtrips () =
  let spec = tiny_spec "codec" in
  let rs = Elfie_workloads.Programs.run_spec ~seed:42L spec in
  let profile = Elfie_pin.Bbv.profile rs ~slice_size:10_000L in
  let reenc enc dec what x =
    match dec (enc x) with
    | Ok y -> Alcotest.(check string) what (enc x) (enc y)
    | Error d -> Alcotest.failf "%s: %a" what Elfie_util.Diag.pp d
  in
  reenc Codec.encode_bbv Codec.decode_bbv "bbv roundtrip" profile;
  let params =
    { Elfie_simpoint.Simpoint.default_params with max_k = 4; dims = 8 }
  in
  let sel = Elfie_simpoint.Simpoint.select ~params profile in
  reenc Codec.encode_selection Codec.decode_selection "selection roundtrip" sel;
  let r =
    Elfie_pin.Logger.capture rs ~name:"farmpb"
      { Elfie_pin.Logger.start = 20_000L; length = 30_000L }
  in
  let pb = r.Elfie_pin.Logger.pinball in
  reenc Codec.encode_pinball
    (Codec.decode_pinball ~name:"farmpb")
    "pinball roundtrip" pb;
  let sysstate = Elfie_pin.Sysstate.analyze pb in
  let image =
    Elfie_core.Pinball2elf.convert
      ~options:
        { Elfie_core.Pinball2elf.default_options with sysstate = Some sysstate }
      pb
  in
  reenc Codec.encode_elfie Codec.decode_elfie "elfie roundtrip"
    (image, sysstate);
  let m =
    { Codec.m_cluster = 3; m_weight = 0.25; m_cpi = 1.75; m_stddev = 0.01;
      m_instructions = 30_000L; m_trials = 3; m_failures = 1 }
  in
  match Codec.decode_measurement (Codec.encode_measurement m) with
  | Ok m' -> Alcotest.(check bool) "measurement roundtrip" true (m = m')
  | Error d -> Alcotest.failf "measurement roundtrip: %a" Elfie_util.Diag.pp d

(* --- corruption sweep ------------------------------------------------------ *)

let test_store_fault_sweep () =
  let root = tmp_dir "elfie_store_faults" in
  let report = Fault_inject.run_store ~iterations:8 ~root () in
  Format.printf "%a@." Fault_inject.pp_store_report report;
  let failures = Fault_inject.store_failures report in
  if failures <> [] then
    Alcotest.failf "%d store fault(s) crashed or served corrupt data"
      (List.length failures);
  Alcotest.(check bool) "sweep is not vacuous" true
    (report.Fault_inject.s_recovered > 0);
  (* Every fault class must be exercised, and every class that corrupts
     committed bytes must quarantine-and-recompute at least once. *)
  List.iter
    (fun fault ->
      let cases =
        List.filter
          (fun (c : Fault_inject.store_case) -> c.Fault_inject.sfault = fault)
          report.Fault_inject.s_cases
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s exercised" (Fault_inject.store_fault_name fault))
        true (cases <> []);
      if fault <> Fault_inject.Stale_lock then
        Alcotest.(check bool)
          (Printf.sprintf "%s recovered at least once"
             (Fault_inject.store_fault_name fault))
          true
          (List.exists
             (fun (c : Fault_inject.store_case) ->
               c.Fault_inject.soutcome = Fault_inject.Store_recovered)
             cases))
    Fault_inject.all_store_faults;
  (* The corpses are on disk and in the persistent log, never deleted. *)
  let store = Store.open_store root in
  let logged = Store.read_quarantine_log store in
  Alcotest.(check bool) "quarantine log populated" true (logged <> []);
  Alcotest.(check bool) "quarantined files preserved" true
    (List.for_all
       (fun (q : Store.quarantine) -> Sys.file_exists q.Store.q_moved_to)
       logged)

(* --- concurrency ----------------------------------------------------------- *)

let test_concurrent_single_computation () =
  let root = tmp_dir "elfie_store_race" in
  let store = Store.open_store root in
  let k = Store.key Store.Measurement ~program:"race" [ ("n", "0") ] in
  let computations = Atomic.make 0 in
  let payload = String.init 4096 (fun i -> Char.chr (i mod 253)) in
  let results =
    Pool.map ~jobs:4
      (fun _ ->
        Store.get_or_compute store k ~format:1 (fun () ->
            Atomic.incr computations;
            (* Widen the race window: losers must wait, not recompute. *)
            Unix.sleepf 0.05;
            payload))
      (List.init 8 Fun.id)
  in
  Alcotest.(check int) "exactly one computation" 1 (Atomic.get computations);
  List.iteri
    (fun i r ->
      Alcotest.(check string)
        (Printf.sprintf "reader %d bit-identical" i)
        payload r)
    results;
  Alcotest.(check bool) "lock released" false
    (Sys.file_exists (Store.lock_path_of store k))

let test_concurrent_stale_lock_break () =
  let root = tmp_dir "elfie_store_stale" in
  let store = Store.open_store root in
  let k = Store.key Store.Measurement ~program:"race" [ ("n", "1") ] in
  (* A lock left behind by a dead process guards the (absent) artifact:
     the racers must break it, then still perform exactly one
     computation among themselves. *)
  let oc = open_out_bin (Store.lock_path_of store k) in
  Printf.fprintf oc "ELFIELOCK %d leftover.0\n" dead_pid;
  close_out oc;
  let m_breaks = Metrics.counter "elfie_store_lock_breaks_total" in
  let breaks0 = Metrics.total m_breaks in
  let computations = Atomic.make 0 in
  let payload = "stale-lock-payload" in
  let results =
    Pool.map ~jobs:4
      (fun _ ->
        Store.get_or_compute store k ~format:1 (fun () ->
            Atomic.incr computations;
            Unix.sleepf 0.05;
            payload))
      (List.init 8 Fun.id)
  in
  Alcotest.(check int) "exactly one computation" 1 (Atomic.get computations);
  List.iter (fun r -> Alcotest.(check string) "bit-identical" payload r) results;
  Alcotest.(check bool) "stale lock was broken" true
    (Metrics.total m_breaks -. breaks0 >= 1.0);
  Alcotest.(check bool) "lock released" false
    (Sys.file_exists (Store.lock_path_of store k))

(* A live process that holds a lock and never commits (a hung owner) is
   waited on until the lock outlives [lock_stale_s], then broken. The
   parent process stands in for the hung owner: it is alive and is not
   this process. *)
let test_hung_owner_lock_break () =
  let root = tmp_dir "elfie_store_hung" in
  let store = Store.open_store root in
  let k = Store.key Store.Measurement ~program:"race" [ ("n", "2") ] in
  let oc = open_out_bin (Store.lock_path_of store k) in
  Printf.fprintf oc "ELFIELOCK %d hung.0\n" (Unix.getppid ());
  close_out oc;
  let m_breaks = Metrics.counter "elfie_store_lock_breaks_total" in
  let breaks0 = Metrics.total m_breaks in
  let deadline = 0.4 in
  let saved = Store.lock_stale_s () in
  Store.set_lock_stale_s deadline;
  let computations = ref 0 in
  let t0 = Unix.gettimeofday () in
  let result =
    Fun.protect
      ~finally:(fun () -> Store.set_lock_stale_s saved)
      (fun () ->
        Store.get_or_compute store k ~format:1 (fun () ->
            incr computations;
            "hung-owner-payload"))
  in
  let waited = Unix.gettimeofday () -. t0 in
  Alcotest.(check string) "value computed" "hung-owner-payload" result;
  Alcotest.(check int) "exactly one computation" 1 !computations;
  Alcotest.(check bool)
    (Printf.sprintf "waited for the deadline (%.3f s)" waited)
    true
    (waited >= deadline *. 0.75);
  Alcotest.(check bool) "hung lock was broken" true
    (Metrics.total m_breaks -. breaks0 >= 1.0);
  Alcotest.(check bool) "lock released" false
    (Sys.file_exists (Store.lock_path_of store k))

(* --- accounting, eviction and quarantine ----------------------------------- *)

let file_size path = (Unix.stat path).Unix.st_size

let flip_last_byte path =
  let raw = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string raw in
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0x40));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)

let put_sized store kind name bytes =
  let k = Store.key kind ~program:name [] in
  Store.put store k ~format:1 (String.make bytes 'x');
  k

let test_size_and_counts () =
  let root = tmp_dir "elfie_store_size" in
  let store = Store.open_store root in
  Alcotest.(check int64) "empty store" 0L (Store.size_bytes store);
  let b1 = put_sized store Store.Bbv "b1" 100 in
  let b2 = put_sized store Store.Bbv "b2" 2000 in
  let m1 = put_sized store Store.Measurement "m1" 50 in
  (* Lock files beside the artifacts are not artifacts. *)
  close_out (open_out_bin (Store.lock_path_of store m1));
  let on_disk keys =
    List.fold_left
      (fun acc k -> Int64.add acc (Int64.of_int (file_size (Store.path_of store k))))
      0L keys
  in
  Alcotest.(check int64) "size is the live files' bytes" (on_disk [ b1; b2; m1 ])
    (Store.size_bytes store);
  Alcotest.(check (list int))
    "per-kind counts" [ 0; 2; 0; 0; 1 ]
    (List.map (Store.artifact_count store) Store.all_kinds);
  (* A quarantined artifact leaves the live totals. *)
  Alcotest.(check bool) "skewed read misses" true
    (Store.get store b2 ~format:2 = None);
  Alcotest.(check int64) "quarantine excluded from size" (on_disk [ b1; m1 ])
    (Store.size_bytes store);
  Alcotest.(check int) "quarantine excluded from count" 1
    (Store.artifact_count store Store.Bbv)

(* Six artifacts with pinned modification times: two distinct times,
   then a tie broken by kind name ("bbv" < "pinball"), then a tie within
   one kind broken by digest. Returned in the documented eviction
   order. *)
let eviction_fixture store =
  let at time k =
    let path = Store.path_of store k in
    Unix.utimes path time time;
    (k, path)
  in
  let m_a = Store.key Store.Measurement ~program:"ma" [] in
  let m_b = Store.key Store.Measurement ~program:"mb" [] in
  let m_lo, m_hi =
    if Store.digest m_a < Store.digest m_b then (m_a, m_b) else (m_b, m_a)
  in
  List.iter
    (fun k -> Store.put store k ~format:1 (String.make 64 'm'))
    [ m_lo; m_hi ];
  [
    at 1000.0 (put_sized store Store.Elfie "oldest" 300);
    at 2000.0 (put_sized store Store.Simpoint "older" 200);
    at 3000.0 (put_sized store Store.Bbv "tie-bbv" 100);
    at 3000.0 (put_sized store Store.Pinball "tie-pinball" 400);
    at 4000.0 m_lo;
    at 4000.0 m_hi;
  ]

let test_eviction_plan () =
  let root = tmp_dir "elfie_store_plan" in
  let store = Store.open_store root in
  let files = eviction_fixture store in
  let total = Store.size_bytes store in
  let plan max_bytes =
    List.map (fun (ev : Store.eviction) -> ev.Store.ev_path)
      (Store.eviction_plan store ~max_bytes)
  in
  Alcotest.(check (list string)) "nothing to drop when it fits" []
    (plan total);
  Alcotest.(check (list string))
    "everything, oldest first, ties by kind then digest"
    (List.map snd files) (plan 0L);
  (* One byte over after dropping the oldest: the next oldest goes too. *)
  let oldest = snd (List.hd files) in
  Alcotest.(check (list string)) "drops until the rest fits"
    [ oldest; snd (List.nth files 1) ]
    (plan (Int64.sub total (Int64.of_int (file_size oldest + 1))));
  List.iter
    (fun (ev : Store.eviction) ->
      let k, _ =
        List.find (fun (_, path) -> path = ev.Store.ev_path) files
      in
      Alcotest.(check string) "digest names the key" (Store.digest k)
        ev.Store.ev_digest;
      Alcotest.(check int) "bytes are the file's" (file_size ev.Store.ev_path)
        ev.Store.ev_bytes)
    (Store.eviction_plan store ~max_bytes:0L);
  Alcotest.(check bool) "a plan touches nothing" true
    (List.for_all (fun (_, path) -> Sys.file_exists path) files
    && Store.size_bytes store = total)

let test_evict_matches_plan () =
  let root = tmp_dir "elfie_store_evict" in
  let store = Store.open_store root in
  let files = eviction_fixture store in
  (* A quarantined corpse and a held lock must survive eviction. *)
  let doomed = put_sized store Store.Bbv "quarantined" 500 in
  ignore (Store.get store doomed ~format:2);
  let corpse =
    match Store.quarantines store with
    | [ q ] -> q.Store.q_moved_to
    | _ -> Alcotest.fail "expected one quarantine"
  in
  let lock = Store.lock_path_of store (fst (List.hd files)) in
  close_out (open_out_bin lock);
  let max_bytes = Int64.div (Store.size_bytes store) 2L in
  let planned =
    List.map (fun (ev : Store.eviction) -> ev.Store.ev_path)
      (Store.eviction_plan store ~max_bytes)
  in
  let m_evictions = Metrics.counter "elfie_store_evictions_total" in
  let evictions0 = Metrics.total m_evictions in
  let removed = Store.evict store ~max_bytes in
  Alcotest.(check int) "removed exactly the plan" (List.length planned) removed;
  Alcotest.(check (float 0.0)) "evictions counted" (float_of_int removed)
    (Metrics.total m_evictions -. evictions0);
  List.iter
    (fun (_, path) ->
      Alcotest.(check bool) path (not (List.mem path planned))
        (Sys.file_exists path))
    files;
  Alcotest.(check bool) "fits the bound" true
    (Store.size_bytes store <= max_bytes);
  Alcotest.(check bool) "quarantined corpse kept" true (Sys.file_exists corpse);
  Alcotest.(check bool) "lock file kept" true (Sys.file_exists lock)

let test_quarantine_stats () =
  let root = tmp_dir "elfie_store_qstats" in
  let store = Store.open_store root in
  Alcotest.(check bool) "empty quarantine" true
    (Store.quarantine_stats store = (0, 0L, []));
  let k1 = put_sized store Store.Bbv "q1" 100 in
  let k2 = put_sized store Store.Simpoint "q2" 200 in
  let k3 = put_sized store Store.Measurement "q3" 300 in
  let sizes = List.map (fun k -> file_size (Store.path_of store k)) [ k1; k2; k3 ] in
  ignore (Store.get store k1 ~format:2);
  ignore (Store.get store k2 ~format:2);
  flip_last_byte (Store.path_of store k3);
  ignore (Store.get store k3 ~format:1);
  let count, bytes, reasons = Store.quarantine_stats store in
  Alcotest.(check int) "three corpses" 3 count;
  Alcotest.(check int64) "corpse bytes preserved"
    (Int64.of_int (List.fold_left ( + ) 0 sizes))
    bytes;
  Alcotest.(check (list (pair string int)))
    "reasons by descending count"
    [ ("format-skew", 2); ("checksum-mismatch", 1) ]
    reasons

let test_quarantine_log_shared () =
  let root = tmp_dir "elfie_store_qlog" in
  let writer = Store.open_store root in
  let k = put_sized writer Store.Pinball "logged" 100 in
  ignore (Store.get writer k ~format:2);
  (* A second handle (another driver) sees the record in the persistent
     log, not in its own quarantines; a torn trailing line is ignored. *)
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644
    (Filename.concat root "quarantine/log")
    (fun oc -> output_string oc "Q1\tdeadbeef\tbbv");
  let reader = Store.open_store root in
  Alcotest.(check int) "reader quarantined nothing itself" 0
    (List.length (Store.quarantines reader));
  match Store.read_quarantine_log reader with
  | [ q ] ->
      Alcotest.(check string) "digest" (Store.digest k) q.Store.q_digest;
      Alcotest.(check string) "kind" "pinball" q.Store.q_kind;
      Alcotest.(check string) "reason" "format-skew" q.Store.q_reason;
      Alcotest.(check bool) "corpse on disk" true
        (Sys.file_exists q.Store.q_moved_to)
  | l -> Alcotest.failf "expected one logged quarantine, got %d" (List.length l)

(* --- codec keys and wrappers ----------------------------------------------- *)

(* Digests written by earlier versions of the farm: a store filled then
   must still be addressed the same way, or every artifact in it is
   silently orphaned. *)
let test_key_digests_pinned () =
  let sp =
    { Elfie_simpoint.Simpoint.default_params with
      slice_size = 10_000L; max_k = 4; dims = 8; seed = 3L }
  in
  List.iter
    (fun (what, expected, k) ->
      Alcotest.(check string) what expected (Store.digest k))
    [
      ( "bbv",
        "7ee0d1ae85093110c85474caca41abb4",
        Codec.bbv_key ~program:"p" ~slice_size:10_000L ~seed:7L () );
      ( "selection",
        "33e4ea5700a1df31c5353d67e788c15e",
        Codec.selection_key ~program:"p" ~params:sp ~seed:7L () );
      ( "pinball",
        "9bdd62ef76bd689b91554e6eb499b131",
        Codec.pinball_key ~program:"p" ~start:20_000L ~length:30_000L () );
      ( "elfie",
        "2f226e7188814f6113fd02a2599ad4b6",
        Codec.elfie_key ~program:"p" ~start:20_000L ~length:30_000L
          ~warmup:1_000L () );
      ( "measurement",
        "6179d13dc39a806ee73dbe20cf1b3206",
        Codec.measurement_key ~program:"p" ~start:20_000L ~length:30_000L
          ~warmup:1_000L ~trials:3 ~base_seed:11L );
    ];
  Alcotest.(check (list int)) "codec format versions" [ 1; 1; 1; 1; 1 ]
    (List.map Codec.format Store.all_kinds)

let test_key_builders_rekey () =
  let d = Store.digest in
  let differ what a b = Alcotest.(check bool) what true (d a <> d b) in
  let same what a b = Alcotest.(check string) what (d a) (d b) in
  let bbv ?seed s = Codec.bbv_key ~program:"p" ~slice_size:s ?seed () in
  same "bbv key is stable" (bbv 10_000L) (bbv 10_000L);
  differ "slice re-keys the profile" (bbv 10_000L) (bbv 20_000L);
  differ "run seed re-keys the profile" (bbv 10_000L) (bbv ~seed:1L 10_000L);
  let sp = Elfie_simpoint.Simpoint.default_params in
  let sel params = Codec.selection_key ~program:"p" ~params () in
  differ "max_k re-keys the selection" (sel sp)
    (sel { sp with max_k = sp.max_k + 1 });
  differ "dims re-key the selection" (sel sp) (sel { sp with dims = sp.dims + 1 });
  differ "the SimPoint seed re-keys the selection" (sel sp)
    (sel { sp with seed = Int64.succ sp.seed });
  let pb ~start = Codec.pinball_key ~program:"p" ~start ~length:500L () in
  let elf ~warmup =
    Codec.elfie_key ~program:"p" ~start:0L ~length:500L ~warmup ()
  in
  differ "window start re-keys the pinball" (pb ~start:0L) (pb ~start:1L);
  differ "an ELFie is not its pinball" (pb ~start:0L) (elf ~warmup:0L);
  differ "warmup re-keys the ELFie" (elf ~warmup:0L) (elf ~warmup:100L);
  let meas ~trials ~base_seed =
    Codec.measurement_key ~program:"p" ~start:0L ~length:500L ~warmup:0L
      ~trials ~base_seed
  in
  differ "trials re-key the measurement" (meas ~trials:1 ~base_seed:0L)
    (meas ~trials:2 ~base_seed:0L);
  differ "base seed re-keys the measurement" (meas ~trials:1 ~base_seed:0L)
    (meas ~trials:1 ~base_seed:1L);
  differ "program bytes re-key everything" (pb ~start:0L)
    (Codec.pinball_key ~program:"q" ~start:0L ~length:500L ())

(* Every strict prefix of a valid payload (sampled for large ones) is
   rejected with a diagnostic — never decoded, never an exception. *)
let test_decoders_reject_truncation () =
  let spec = tiny_spec "truncate" in
  let rs = Elfie_workloads.Programs.run_spec ~seed:42L spec in
  let profile = Elfie_pin.Bbv.profile rs ~slice_size:10_000L in
  let sel =
    Elfie_simpoint.Simpoint.select
      ~params:{ Elfie_simpoint.Simpoint.default_params with max_k = 4; dims = 8 }
      profile
  in
  let pb =
    (Elfie_pin.Logger.capture rs ~name:"trunc"
       { Elfie_pin.Logger.start = 20_000L; length = 10_000L })
      .Elfie_pin.Logger.pinball
  in
  let sysstate = Elfie_pin.Sysstate.analyze pb in
  let image =
    Elfie_core.Pinball2elf.convert
      ~options:
        { Elfie_core.Pinball2elf.default_options with sysstate = Some sysstate }
      pb
  in
  let m =
    { Codec.m_cluster = 1; m_weight = 0.5; m_cpi = 1.25; m_stddev = 0.02;
      m_instructions = 10_000L; m_trials = 2; m_failures = 0 }
  in
  let check what payload decode =
    let n = String.length payload in
    let step = max 1 (n / 97) in
    let lengths =
      List.sort_uniq compare
        (List.init ((n + step - 1) / step) (fun i -> i * step)
        @ List.init (min n 16) (fun i -> n - 1 - i))
    in
    List.iter
      (fun len ->
        match decode (String.sub payload 0 len) with
        | Error (_ : Elfie_util.Diag.t) -> ()
        | Ok _ -> Alcotest.failf "%s: %d-of-%d-byte prefix decoded" what len n
        | exception e ->
            Alcotest.failf "%s: %d-of-%d-byte prefix raised %s" what len n
              (Printexc.to_string e))
      lengths;
    Alcotest.(check bool) (what ^ ": whole payload decodes") true
      (Result.is_ok (decode payload))
  in
  let ignore_ok r = Result.map ignore r in
  check "bbv" (Codec.encode_bbv profile) (fun s ->
      ignore_ok (Codec.decode_bbv s));
  check "selection" (Codec.encode_selection sel) (fun s ->
      ignore_ok (Codec.decode_selection s));
  check "pinball" (Codec.encode_pinball pb) (fun s ->
      ignore_ok (Codec.decode_pinball ~name:"trunc" s));
  check "elfie" (Codec.encode_elfie (image, sysstate)) (fun s ->
      ignore_ok (Codec.decode_elfie s));
  check "measurement" (Codec.encode_measurement m) (fun s ->
      ignore_ok (Codec.decode_measurement s))

let test_cached_wrappers () =
  let root = tmp_dir "elfie_codec_cached" in
  let store = Store.open_store root in
  let k =
    Codec.measurement_key ~program:"p" ~start:0L ~length:500L ~warmup:0L
      ~trials:2 ~base_seed:0L
  in
  let m =
    { Codec.m_cluster = 2; m_weight = 0.75; m_cpi = 1.5; m_stddev = 0.0;
      m_instructions = 500L; m_trials = 2; m_failures = 0 }
  in
  let fetch () =
    let seen = ref [] and computed = ref 0 in
    let v =
      Codec.cached_measurement
        ~on_result:(fun r -> seen := r :: !seen)
        store k
        (fun () ->
          incr computed;
          m)
    in
    Alcotest.(check bool) "value" true (v = m);
    (!seen, !computed)
  in
  let last_reason () =
    match List.rev (Store.quarantines store) with
    | q :: _ -> q.Store.q_reason
    | [] -> "none"
  in
  Alcotest.(check bool) "cold: miss, computed" true (fetch () = ([ `Miss ], 1));
  Alcotest.(check bool) "warm: hit, not computed" true (fetch () = ([ `Hit ], 0));
  (* A payload that verifies but does not decode is quarantined and
     recomputed... *)
  Store.put store k ~format:(Codec.format Store.Measurement) "not a record";
  Alcotest.(check bool) "undecodable: miss, recomputed" true
    (fetch () = ([ `Miss ], 1));
  Alcotest.(check string) "undecodable quarantined" "undecodable"
    (last_reason ());
  (* ...and so is one written under another codec version. *)
  Store.put store k
    ~format:(Codec.format Store.Measurement + 1)
    (Codec.encode_measurement m);
  Alcotest.(check bool) "format skew: miss, recomputed" true
    (fetch () = ([ `Miss ], 1));
  Alcotest.(check string) "skew quarantined" "format-skew" (last_reason ());
  Alcotest.(check bool) "recomputed value served warm" true
    (fetch () = ([ `Hit ], 0))

(* --- batch driver ---------------------------------------------------------- *)

let farm_params =
  { Driver.default_params with
    max_k = 3; dims = 8; warmup = 1_000L; trials = 1; max_regions = 2 }

let test_driver_cold_warm_incremental () =
  let root = tmp_dir "elfie_farm_batch" in
  let store = Store.open_store root in
  let spec = tiny_spec "batch" in
  let job = Driver.job ~params:farm_params ~name:"tiny" spec in
  let m_loader = Metrics.counter "elfie_loader_runs_total" in
  (* Cold: every stage is a miss and the program actually runs. *)
  let cold = Driver.run ~store [ job ] in
  Alcotest.(check int) "cold run has no hits" 0 cold.Driver.b_hits;
  Alcotest.(check bool) "cold run computes" true (cold.Driver.b_misses > 0);
  let cold_cpi =
    match cold.Driver.outcomes with
    | [ { o_result = Some r; _ } ] -> r.Driver.jr_pred_cpi
    | _ -> Alcotest.fail "cold run did not produce a result"
  in
  Alcotest.(check bool) "cold run predicts a CPI" true (cold_cpi <> None);
  (* Warm: the same manifest is served entirely from cache — zero
     misses, zero program executions. *)
  let runs0 = Metrics.total m_loader in
  let warm = Driver.run ~store [ job ] in
  Alcotest.(check int) "warm run misses nothing" 0 warm.Driver.b_misses;
  Alcotest.(check bool) "warm run hits" true (warm.Driver.b_hits > 0);
  Alcotest.(check (float 0.0)) "warm run executes no program" 0.0
    (Metrics.total m_loader -. runs0);
  (match warm.Driver.outcomes with
  | [ { o_result = Some r; _ } ] ->
      Alcotest.(check bool) "warm result identical" true
        (r.Driver.jr_pred_cpi = cold_cpi)
  | _ -> Alcotest.fail "warm run did not produce a result");
  (* Incremental SimPoint reuse: a changed max_k re-keys the selection
     (and everything behind it) but hits the cached BBV profile — the
     store gains a second selection, never a second profile. *)
  Alcotest.(check int) "one profile cached" 1
    (Store.artifact_count store Store.Bbv);
  Alcotest.(check int) "one selection cached" 1
    (Store.artifact_count store Store.Simpoint);
  let job_k4 =
    Driver.job
      ~params:{ farm_params with max_k = 4 }
      ~name:"tiny-k4" spec
  in
  let rerun = Driver.run ~store [ job_k4 ] in
  Alcotest.(check bool) "changed k still hits the profile" true
    (rerun.Driver.b_hits >= 1);
  Alcotest.(check int) "profile not recomputed" 1
    (Store.artifact_count store Store.Bbv);
  Alcotest.(check int) "selection re-keyed" 2
    (Store.artifact_count store Store.Simpoint)

let test_driver_resume () =
  let root = tmp_dir "elfie_farm_resume" in
  let store = Store.open_store root in
  let spec = tiny_spec "resume" in
  let j1 = Driver.job ~params:farm_params ~name:"one" spec in
  let j2 =
    Driver.job ~params:{ farm_params with max_k = 4 } ~name:"two" spec
  in
  let jpath = Filename.temp_file "elfie_farm_journal" ".j" in
  (* First run finishes only job one, then the driver "dies". *)
  let journal = Journal.open_file jpath in
  let b1 = Driver.run ~store ~journal [ j1 ] in
  Journal.close journal;
  Alcotest.(check int) "first run skipped nothing" 0 b1.Driver.b_skipped;
  (* Resume with the full manifest: job one is satisfied from the
     journal (nothing runs, not even cache lookups), job two runs. *)
  let journal = Journal.open_file jpath in
  let b2 = Driver.run ~store ~journal ~resume:true [ j1; j2 ] in
  Journal.close journal;
  Alcotest.(check int) "resume skipped the finished job" 1
    b2.Driver.b_skipped;
  (match b2.Driver.outcomes with
  | [ o1; o2 ] ->
      Alcotest.(check bool) "job one skipped" true o1.Driver.o_skipped;
      Alcotest.(check bool) "job two ran" false o2.Driver.o_skipped;
      Alcotest.(check bool) "job two produced a result" true
        (o2.Driver.o_result <> None)
  | _ -> Alcotest.fail "expected two outcomes");
  (* A changed parameter invalidates the journal record: nothing skips. *)
  let j1' =
    Driver.job ~params:{ farm_params with trials = 2 } ~name:"one" spec
  in
  let journal = Journal.open_file jpath in
  let b3 = Driver.run ~store ~journal ~resume:true [ j1' ] in
  Journal.close journal;
  Alcotest.(check int) "changed inputs re-run" 0 b3.Driver.b_skipped;
  Sys.remove jpath

let test_driver_survives_corrupt_cache () =
  let root = tmp_dir "elfie_farm_corrupt" in
  let store = Store.open_store root in
  let spec = tiny_spec "corrupt" in
  let job = Driver.job ~params:farm_params ~name:"tiny" spec in
  let cold = Driver.run ~store [ job ] in
  Alcotest.(check bool) "cold run computes" true (cold.Driver.b_misses > 0);
  (* Flip the last byte of the cached BBV profile (payload region): the
     warm run must quarantine it, recompute, and still succeed. *)
  let bbv_key =
    Codec.bbv_key ~program:(program_bytes spec)
      ~slice_size:farm_params.Driver.slice_size
      ~seed:farm_params.Driver.base_seed ()
  in
  flip_last_byte (Store.path_of store bbv_key);
  let warm = Driver.run ~store [ job ] in
  Alcotest.(check bool) "corrupt profile quarantined" true
    (List.exists
       (fun (q : Store.quarantine) -> q.Store.q_kind = "bbv")
       warm.Driver.b_store_quarantines);
  Alcotest.(check bool) "profile recomputed" true (warm.Driver.b_misses >= 1);
  match warm.Driver.outcomes with
  | [ { o_result = Some _; o_skipped = false; _ } ] -> ()
  | _ -> Alcotest.fail "batch did not survive the corrupt cache entry"

(* --- manifest -------------------------------------------------------------- *)

let test_manifest_parsing () =
  let ok =
    Driver.manifest_of_string ~artifact:"m"
      "# comment\n\
       \n\
       leela bench=541.leela_r max-k=4 trials=1\n\
       mcf bench=505.mcf_r slice=20000 regions=2\n"
  in
  (match ok with
  | Ok [ a; b ] ->
      Alcotest.(check string) "first job" "leela" a.Driver.j_name;
      Alcotest.(check int) "max-k parsed" 4 a.Driver.j_params.Driver.max_k;
      Alcotest.(check int) "trials parsed" 1 a.Driver.j_params.Driver.trials;
      Alcotest.(check int64) "slice parsed" 20_000L
        b.Driver.j_params.Driver.slice_size;
      Alcotest.(check int) "regions parsed" 2
        b.Driver.j_params.Driver.max_regions
  | Ok _ -> Alcotest.fail "expected two jobs"
  | Error d -> Alcotest.failf "manifest rejected: %a" Elfie_util.Diag.pp d);
  let bad what s =
    match Driver.manifest_of_string ~artifact:"m" s with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error d ->
        Alcotest.(check bool)
          (what ^ ": malformed, naming line 1")
          true
          (d.Elfie_util.Diag.code = Elfie_util.Diag.Malformed
          && String.starts_with ~prefix:"line 1: " d.Elfie_util.Diag.message)
  in
  bad "missing bench" "job slice=100\n";
  bad "unknown benchmark" "job bench=no-such-benchmark\n";
  bad "unknown key" "job bench=541.leela_r nope=1\n";
  bad "bad integer" "job bench=541.leela_r slice=ten\n";
  bad "zero slice" "job bench=541.leela_r slice=0\n";
  bad "negative slice" "job bench=541.leela_r slice=-5\n";
  bad "zero max-k" "job bench=541.leela_r max-k=0\n";
  bad "zero dims" "job bench=541.leela_r dims=0\n";
  bad "zero trials" "job bench=541.leela_r trials=0\n";
  bad "negative warmup" "job bench=541.leela_r warmup=-1\n";
  bad "negative regions" "job bench=541.leela_r regions=-1\n";
  (match
     Driver.manifest_of_string ~artifact:"m"
       "job bench=541.leela_r warmup=0 regions=0\n"
   with
  | Ok [ j ] ->
      Alcotest.(check int) "regions=0 means all" 0
        j.Driver.j_params.Driver.max_regions
  | _ -> Alcotest.fail "zero warmup and regions rejected")

let test_missing_manifest () =
  match Driver.load_manifest "/nonexistent/elfie/manifest" with
  | Ok _ -> Alcotest.fail "a missing manifest loaded"
  | Error d ->
      Alcotest.(check bool) "an I/O diagnostic" true
        (d.Elfie_util.Diag.code = Elfie_util.Diag.Io_error)

(* Resume skips a job only when its journal inputs match, so every
   parameter that changes the result must change the inputs. *)
let test_job_inputs () =
  let spec = tiny_spec "inputs" in
  let inputs ?(name = "j") ?(spec = spec) params =
    Driver.job_inputs (Driver.job ~params ~name spec)
  in
  let p = farm_params in
  Alcotest.(check (list string)) "same job, same inputs" (inputs p) (inputs p);
  List.iter
    (fun (what, changed) ->
      Alcotest.(check bool) what true (inputs p <> changed))
    [
      ("name", inputs ~name:"k" p);
      ("program", inputs ~spec:(tiny_spec "other") p);
      ("slice", inputs { p with slice_size = Int64.succ p.Driver.slice_size });
      ("max-k", inputs { p with max_k = p.Driver.max_k + 1 });
      ("dims", inputs { p with dims = p.Driver.dims + 1 });
      ("sp-seed", inputs { p with sp_seed = Int64.succ p.Driver.sp_seed });
      ("warmup", inputs { p with warmup = Int64.succ p.Driver.warmup });
      ("trials", inputs { p with trials = p.Driver.trials + 1 });
      ("seed", inputs { p with base_seed = Int64.succ p.Driver.base_seed });
      ("regions", inputs { p with max_regions = p.Driver.max_regions + 1 });
    ]

let test_duplicate_names_rejected () =
  let root = tmp_dir "elfie_farm_dup" in
  let store = Store.open_store root in
  let spec = tiny_spec "dup" in
  let a = Driver.job ~params:farm_params ~name:"same" spec in
  let b = Driver.job ~params:{ farm_params with max_k = 4 } ~name:"same" spec in
  (match Driver.run ~store [ a; b ] with
  | _ -> Alcotest.fail "duplicate job names accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int64) "nothing ran" 0L (Store.size_bytes store)

(* The concurrency tests below drive real `elfied run` processes (not
   forks): OCaml 5 forbids fork once pool domains have ever been
   spawned, and the CLI is the surface that drivers share a store
   through. *)
let elfied_exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    "../../bin/elfied.exe"

let race_manifest root =
  let path = Filename.concat root "manifest" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        "ra bench=541.leela_r max-k=3 warmup=1000 trials=1 regions=2\n\
         rb bench=541.leela_r max-k=4 warmup=1000 trials=1 regions=2\n");
  match Driver.load_manifest path with
  | Ok jobs -> (path, jobs)
  | Error d -> Alcotest.failf "manifest rejected: %a" Elfie_util.Diag.pp d

(* Start `elfied run MANIFEST --store STORE_ROOT ARGS`, with stdout and
   stderr written to [output] (discarded by default). *)
let spawn_driver ?(output = "/dev/null") ~manifest ~store_root args =
  let out =
    Unix.openfile output [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process elfied_exe
      (Array.of_list
         (elfied_exe :: "run" :: manifest :: "--store" :: store_root :: args))
      Unix.stdin out out
  in
  Unix.close out;
  pid

(* Two `elfied run --resume` processes race the same journal and store,
   and one of them is SIGKILLed mid-run — the abandoned locks and any
   torn trailing journal line must not stop the survivor, and a warm
   resume afterwards must satisfy every job from the journal without
   running anything. *)
let test_concurrent_resume_kill () =
  let root = tmp_dir "elfie_farm_race_resume" in
  let store_root = Filename.concat root "store" in
  let jpath = Filename.concat root "journal.j1" in
  let manifest, jobs = race_manifest root in
  let spawn () =
    spawn_driver ~manifest ~store_root [ "--journal"; jpath; "--resume" ]
  in
  let survivor = spawn () in
  let victim = spawn () in
  Unix.sleepf 0.3;
  Unix.kill victim Sys.sigkill;
  let _, victim_status = Unix.waitpid [] victim in
  let _, survivor_status = Unix.waitpid [] survivor in
  (match victim_status with
  | Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | Unix.WEXITED 0 -> () (* finished before the kill landed; still valid *)
  | _ -> Alcotest.fail "victim neither killed nor graceful");
  (match survivor_status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "survivor exited %d" n
  | _ -> Alcotest.fail "survivor did not exit normally");
  (* Warm resume: the journal (including whatever the victim left
     behind) satisfies both jobs; nothing runs, nothing is recomputed. *)
  let store = Store.open_store store_root in
  let journal = Journal.open_file jpath in
  let m_loader = Metrics.counter "elfie_loader_runs_total" in
  let runs0 = Metrics.total m_loader in
  let warm = Driver.run ~store ~journal ~resume:true jobs in
  Journal.close journal;
  Alcotest.(check int) "warm resume skips both jobs" 2 warm.Driver.b_skipped;
  Alcotest.(check int) "warm resume misses nothing" 0 warm.Driver.b_misses;
  Alcotest.(check (float 0.0)) "warm resume executes no program" 0.0
    (Metrics.total m_loader -. runs0);
  Alcotest.(check int) "warm resume quarantines nothing" 0
    warm.Driver.b_quarantined

(* Four drivers share one cold store, with no journal: the store's
   per-key locks alone must make them compute every artifact exactly
   once between them and print the results a lone driver prints. *)
let test_shared_store_drivers () =
  let root = tmp_dir "elfie_farm_shared" in
  let manifest, jobs = race_manifest root in
  let run_drivers ~store_root n =
    let outputs =
      List.init n (fun i ->
          Filename.concat root (Printf.sprintf "%s.%d.out" store_root i))
    in
    let pids =
      List.map
        (fun output ->
          spawn_driver ~output ~manifest
            ~store_root:(Filename.concat root store_root) [])
        outputs
    in
    List.iter2
      (fun pid output ->
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ ->
            Alcotest.failf "driver failed:\n%s"
              (In_channel.with_open_text output In_channel.input_all))
      pids outputs;
    List.map
      (fun output ->
        In_channel.with_open_text output In_channel.input_all
        |> String.split_on_char '\n')
      outputs
  in
  (* A job line ends in its own cache tally, which depends on who won
     each race; the batch line carries the driver's miss count. *)
  let job_lines lines =
    List.filter_map
      (fun l ->
        if l = "" || String.starts_with ~prefix:"batch:" l then None
        else
          let rec upto_cache = function
            | [] | "cache" :: _ -> []
            | w :: rest -> w :: upto_cache rest
          in
          Some (String.concat " " (upto_cache (String.split_on_char ' ' l))))
      lines
  in
  let misses lines =
    List.find_map
      (fun l ->
        Scanf.sscanf_opt l "batch: %_d job(s), %_d skipped, %_d quarantined, \
                             cache %_d hit / %d miss" Fun.id)
      lines
    |> Option.value ~default:(-1)
  in
  let lone = List.hd (run_drivers ~store_root:"lone" 1) in
  let distinct_keys = misses lone in
  Alcotest.(check bool) "lone driver computes" true (distinct_keys > 0);
  let shared = run_drivers ~store_root:"shared" 4 in
  List.iteri
    (fun i out ->
      Alcotest.(check (list string))
        (Printf.sprintf "driver %d prints the lone driver's jobs" i)
        (job_lines lone) (job_lines out))
    shared;
  Alcotest.(check int) "every key computed exactly once across drivers"
    distinct_keys
    (List.fold_left (fun acc out -> acc + misses out) 0 shared);
  let store = Store.open_store (Filename.concat root "shared") in
  Alcotest.(check int) "one artifact per key" distinct_keys
    (List.fold_left
       (fun acc kind -> acc + Store.artifact_count store kind)
       0 Store.all_kinds);
  let qcount, _, _ = Store.quarantine_stats store in
  Alcotest.(check int) "quarantine empty" 0 qcount;
  let m_loader = Metrics.counter "elfie_loader_runs_total" in
  let runs0 = Metrics.total m_loader in
  let warm = Driver.run ~store jobs in
  Alcotest.(check int) "warm run misses nothing" 0 warm.Driver.b_misses;
  Alcotest.(check (float 0.0)) "warm run executes no program" 0.0
    (Metrics.total m_loader -. runs0)

let () =
  Alcotest.run "farm"
    [
      ( "store",
        [
          Alcotest.test_case "key normalization" `Quick test_key_normalization;
          Alcotest.test_case "put/get roundtrip + skew" `Quick
            test_put_get_roundtrip;
          Alcotest.test_case "codec roundtrips" `Slow test_codec_roundtrips;
          Alcotest.test_case "corruption sweep" `Slow test_store_fault_sweep;
          Alcotest.test_case "race: exactly one computation" `Quick
            test_concurrent_single_computation;
          Alcotest.test_case "race: stale lock broken" `Quick
            test_concurrent_stale_lock_break;
          Alcotest.test_case "race: hung owner broken at deadline" `Quick
            test_hung_owner_lock_break;
          Alcotest.test_case "size and counts" `Quick test_size_and_counts;
          Alcotest.test_case "eviction plan order" `Quick test_eviction_plan;
          Alcotest.test_case "evict matches plan" `Quick
            test_evict_matches_plan;
          Alcotest.test_case "quarantine stats" `Quick test_quarantine_stats;
          Alcotest.test_case "quarantine log shared" `Quick
            test_quarantine_log_shared;
        ] );
      ( "codec",
        [
          Alcotest.test_case "key digests pinned" `Quick
            test_key_digests_pinned;
          Alcotest.test_case "key builders re-key" `Quick
            test_key_builders_rekey;
          Alcotest.test_case "truncated payloads rejected" `Slow
            test_decoders_reject_truncation;
          Alcotest.test_case "cached wrappers" `Quick test_cached_wrappers;
        ] );
      ( "driver",
        [
          Alcotest.test_case "manifest parsing" `Quick test_manifest_parsing;
          Alcotest.test_case "missing manifest" `Quick test_missing_manifest;
          Alcotest.test_case "job inputs" `Quick test_job_inputs;
          Alcotest.test_case "duplicate names rejected" `Quick
            test_duplicate_names_rejected;
          Alcotest.test_case "cold/warm/incremental" `Slow
            test_driver_cold_warm_incremental;
          Alcotest.test_case "journal resume" `Slow test_driver_resume;
          Alcotest.test_case "corrupt cache survived" `Slow
            test_driver_survives_corrupt_cache;
          Alcotest.test_case "concurrent resume, one driver killed" `Slow
            test_concurrent_resume_kill;
          Alcotest.test_case "four drivers share one cold store" `Slow
            test_shared_store_drivers;
        ] );
    ]
