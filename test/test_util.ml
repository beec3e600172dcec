(* Unit and property tests for Elfie_util: byte I/O and the RNG. *)

open Elfie_util

let test_writer_reader_scalars () =
  let w = Byteio.Writer.create () in
  Byteio.Writer.u8 w 0xab;
  Byteio.Writer.u16 w 0xbeef;
  Byteio.Writer.u32 w 0xdeadbeef;
  Byteio.Writer.u64 w 0x0123456789abcdefL;
  Byteio.Writer.i32 w (-42);
  let r = Byteio.Reader.of_bytes (Byteio.Writer.contents w) in
  Alcotest.(check int) "u8" 0xab (Byteio.Reader.u8 r);
  Alcotest.(check int) "u16" 0xbeef (Byteio.Reader.u16 r);
  Alcotest.(check int) "u32" 0xdeadbeef (Byteio.Reader.u32 r);
  Alcotest.check Tutil.i64 "u64" 0x0123456789abcdefL (Byteio.Reader.u64 r);
  Alcotest.(check int) "i32" (-42) (Byteio.Reader.i32 r);
  Alcotest.(check int) "exhausted" 0 (Byteio.Reader.remaining r)

let test_little_endian () =
  let w = Byteio.Writer.create () in
  Byteio.Writer.u32 w 0x11223344;
  let b = Byteio.Writer.contents w in
  Alcotest.(check char) "lsb first" '\x44' (Bytes.get b 0);
  Alcotest.(check char) "msb last" '\x11' (Bytes.get b 3)

let test_truncated () =
  let r = Byteio.Reader.of_string "ab" in
  Alcotest.check_raises "u32 on 2 bytes"
    (Byteio.Truncated "u8: need 1 bytes at offset 2, have 0") (fun () ->
      ignore (Byteio.Reader.u32 r))

let test_pad_to () =
  let w = Byteio.Writer.create () in
  Byteio.Writer.u8 w 1;
  Byteio.Writer.pad_to w 8;
  Alcotest.(check int) "padded" 8 (Byteio.Writer.length w);
  Alcotest.check_raises "backwards pad"
    (Invalid_argument "Byteio.Writer.pad_to: at 8, past 4") (fun () ->
      Byteio.Writer.pad_to w 4)

let test_seek_and_bytes () =
  let r = Byteio.Reader.of_string "hello world" in
  Byteio.Reader.seek r 6;
  Alcotest.(check string) "tail" "world" (Byteio.Reader.string_n r 5);
  Byteio.Reader.seek r 0;
  Alcotest.(check string) "head" "hello" (Bytes.to_string (Byteio.Reader.bytes r 5))

let test_i32_range () =
  let w = Byteio.Writer.create () in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Byteio.Writer.i32: 2147483648 out of range") (fun () ->
      Byteio.Writer.i32 w 0x8000_0000)

let prop_u64_roundtrip =
  QCheck.Test.make ~name:"u64 write/read roundtrip" ~count:200
    QCheck.int64 (fun v ->
      let w = Byteio.Writer.create () in
      Byteio.Writer.u64 w v;
      Byteio.Reader.u64 (Byteio.Reader.of_bytes (Byteio.Writer.contents w)) = v)

let prop_i32_roundtrip =
  QCheck.Test.make ~name:"i32 write/read roundtrip" ~count:200
    (QCheck.int_range (-0x8000_0000) 0x7fff_ffff) (fun v ->
      let w = Byteio.Writer.create () in
      Byteio.Writer.i32 w v;
      Byteio.Reader.i32 (Byteio.Reader.of_bytes (Byteio.Writer.contents w)) = v)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.check Tutil.i64 "same stream" (Rng.next64 a) (Rng.next64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1L and b = Rng.create 2L in
  Alcotest.(check bool) "different streams" false (Rng.next64 a = Rng.next64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_bounds () =
  let rng = Rng.create 9L in
  for _ = 1 to 1000 do
    let v = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_shuffle_is_permutation () =
  let rng = Rng.create 5L in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted;
  Alcotest.(check bool) "actually shuffled" true (a <> Array.init 50 Fun.id)

let test_split_independent () =
  let parent = Rng.create 11L in
  let child = Rng.split parent in
  Alcotest.(check bool) "distinct" false (Rng.next64 parent = Rng.next64 child)

(* Golden streams: the first eight draws of a fresh generator, of a
   split child, after [copy] and after [reseed]. Any change to the
   state representation must leave every stream exactly here. *)
let rng_golden_create =
  [ 0xbdd732262feb6e95L; 0x28efe333b266f103L; 0x47526757130f9f52L;
    0x581ce1ff0e4ae394L; 0x09bc585a244823f2L; 0xde4431fa3c80db06L;
    0x37e9671c45376d5dL; 0xccf635ee9e9e2fa4L ]

let rng_golden_split_child =
  [ 0x57e1faba65107204L; 0xf4abd143feb24055L; 0x7c816738c12903b2L;
    0x113e5dec6f8fd8a8L; 0xad4a599062fd1739L; 0x11485b98a7ea20b7L;
    0x32028f50341ebd74L; 0xbc16a3d4cc48678eL ]

let rng_golden_reseed_7 =
  [ 0x63cbe1e459320dd7L; 0x044c3cd7f43c661cL; 0xe6984080bab12a02L;
    0x953aeb70673e29cbL; 0x73d33b666a1e21daL; 0x3fdabe86cbbeaa11L;
    0x77cbc4a133c2d0f6L; 0x53fcd6513d02befeL ]

let test_rng_golden_streams () =
  let draws r = List.init 8 (fun _ -> Rng.next64 r) in
  let check name expected r =
    Alcotest.(check (list Tutil.i64)) name expected (draws r)
  in
  check "create 42" rng_golden_create (Rng.create 42L);
  let parent = Rng.create 42L in
  let child = Rng.split parent in
  check "split child" rng_golden_split_child child;
  (* The split consumed the parent's first draw. *)
  check "split parent"
    (List.tl rng_golden_create @ [ 0x5705b8770b3d7dd5L ])
    parent;
  let a = Rng.create 42L in
  ignore (Rng.next64 a);
  ignore (Rng.next64 a);
  let b = Rng.copy a in
  let tail = List.filteri (fun i _ -> i >= 2) rng_golden_create
             @ [ 0x5705b8770b3d7dd5L; 0x9e54d738297f77aeL ] in
  check "copy" tail b;
  check "copied-from advances alone" tail a;
  let r = Rng.create 42L in
  ignore (Rng.next64 r);
  Rng.reseed r 7L;
  check "reseed 7" rng_golden_reseed_7 r

(* --- backoff --------------------------------------------------------------- *)

let backoff_policy =
  { Backoff.base_s = 0.05; factor = 2.0; max_s = 0.4; jitter = 0.0 }

let test_backoff_schedule () =
  Alcotest.(check (float 0.0)) "attempt 0 never waits" 0.0
    (Backoff.delay backoff_policy ~attempt:0);
  Alcotest.(check (float 1e-9)) "attempt 1 waits base" 0.05
    (Backoff.delay backoff_policy ~attempt:1);
  Alcotest.(check (float 1e-9)) "attempt 2 doubles" 0.1
    (Backoff.delay backoff_policy ~attempt:2);
  Alcotest.(check (float 1e-9)) "attempt 3 doubles again" 0.2
    (Backoff.delay backoff_policy ~attempt:3);
  (* The raw schedule would be 0.4, 0.8, 1.6, ... — the ceiling caps
     every further delay, out to attempt counts that would overflow the
     raw exponential. *)
  List.iter
    (fun attempt ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "attempt %d capped at max_s" attempt)
        backoff_policy.Backoff.max_s
        (Backoff.delay backoff_policy ~attempt))
    [ 4; 5; 10; 60; 1000 ]

let test_backoff_jitter_capped_and_deterministic () =
  let policy = { backoff_policy with jitter = 0.25 } in
  let draw seed =
    let rng = Rng.create seed in
    List.init 12 (fun i -> Backoff.delay ~rng policy ~attempt:(i + 1))
  in
  Alcotest.(check (list (float 0.0))) "same seed, same delay sequence"
    (draw 7L) (draw 7L);
  Alcotest.(check bool) "different seed perturbs the sequence" true
    (draw 7L <> draw 8L);
  List.iter
    (fun d ->
      Alcotest.(check bool) "jittered delay capped at max_s" true
        (d >= 0.0 && d <= policy.Backoff.max_s))
    (draw 7L)

let test_backoff_disabled_draws_nothing () =
  (* A zero-base policy must not advance the caller's rng: supervised
     runs with backoff disabled keep bit-identical seed streams. *)
  let rng = Rng.create 3L and untouched = Rng.create 3L in
  List.iter
    (fun attempt ->
      Alcotest.(check (float 0.0)) "disabled backoff never waits" 0.0
        (Backoff.delay ~rng Backoff.none ~attempt))
    [ 0; 1; 2; 3; 8 ];
  Alcotest.(check bool) "rng stream unperturbed" true
    (Rng.next64 rng = Rng.next64 untouched)

let suite =
  [
    Alcotest.test_case "writer/reader scalars" `Quick test_writer_reader_scalars;
    Alcotest.test_case "little endian layout" `Quick test_little_endian;
    Alcotest.test_case "truncated read raises" `Quick test_truncated;
    Alcotest.test_case "pad_to" `Quick test_pad_to;
    Alcotest.test_case "seek and bytes" `Quick test_seek_and_bytes;
    Alcotest.test_case "i32 range check" `Quick test_i32_range;
    QCheck_alcotest.to_alcotest prop_u64_roundtrip;
    QCheck_alcotest.to_alcotest prop_i32_roundtrip;
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng float bounds" `Quick test_rng_float_bounds;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "split independence" `Quick test_split_independent;
    Alcotest.test_case "rng golden streams" `Quick test_rng_golden_streams;
    Alcotest.test_case "backoff schedule caps at ceiling" `Quick
      test_backoff_schedule;
    Alcotest.test_case "backoff jitter capped + same-seed deterministic"
      `Quick test_backoff_jitter_capped_and_deterministic;
    Alcotest.test_case "disabled backoff draws nothing" `Quick
      test_backoff_disabled_draws_nothing;
  ]
