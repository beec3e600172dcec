(* The 64-bit state lives in 8 raw bytes: reading and writing it with
   the unboxed [Bytes] int64 primitives lets a draw run without
   allocating, where a [mutable state : int64] field would box every
   update. *)
type t = Bytes.t

let[@inline] get t = Bytes.get_int64_le t 0
let[@inline] set t v = Bytes.set_int64_le t 0 v

let create seed =
  let t = Bytes.create 8 in
  set t seed;
  t

let[@inline] next64 t =
  let ( *% ) = Int64.mul in
  let ( ^> ) v n = Int64.logxor v (Int64.shift_right_logical v n) in
  let z = Int64.add (get t) 0x9E3779B97F4A7C15L in
  set t z;
  let z = (z ^> 30) *% 0xBF58476D1CE4E5B9L in
  let z = (z ^> 27) *% 0x94D049BB133111EBL in
  z ^> 31

let split t = create (next64 t)

(* Same stream position as [t], advancing independently from here on. *)
let copy t = Bytes.copy t

let reseed t seed = set t seed

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Masking to 62 bits keeps the value a non-negative OCaml int. *)
  let v = Int64.to_int (Int64.logand (next64 t) 0x3FFF_FFFF_FFFF_FFFFL) in
  v mod bound

let float t =
  let v = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (next64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
