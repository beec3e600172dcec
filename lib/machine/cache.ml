type config = { size_bytes : int; ways : int; line_bytes : int }

let config ~size_bytes ~ways ~line_bytes =
  if size_bytes <= 0 then invalid_arg "Cache: size";
  if ways <= 0 then invalid_arg "Cache: ways";
  (* Four bytes or more keeps every line number of a 64-bit address
     non-negative as an OCaml [int] (a 62-bit value), so no address can
     alias the invalid tag -1 or index a negative set. *)
  if line_bytes < 4 || line_bytes land (line_bytes - 1) <> 0 then
    invalid_arg "Cache: line size";
  if size_bytes mod (ways * line_bytes) <> 0 then invalid_arg "Cache: geometry";
  { size_bytes; ways; line_bytes }

type t = {
  ways : int;
  sets : int;
  set_mask : int;  (* sets - 1 when sets is a power of two, else -1 *)
  key_shift : int;  (* log2 line_bytes - 1: line = key lsr key_shift *)
  (* [ways] line numbers per set, most recent first; -1 = invalid. A
     line only ever enters at the front, so invalid entries always sit
     behind the valid ones and the last entry is the LRU victim. *)
  tags : int array;
  mutable hits : int;
  mutable misses : int;
}

let create cfg =
  let sets = cfg.size_bytes / (cfg.ways * cfg.line_bytes) in
  let line_bits =
    let rec go n b = if n = 1 then b else go (n lsr 1) (b + 1) in
    go cfg.line_bytes 0
  in
  {
    ways = cfg.ways;
    sets;
    set_mask = (if sets land (sets - 1) = 0 then sets - 1 else -1);
    key_shift = line_bits - 1;
    tags = Array.make (sets * cfg.ways) (-1);
    hits = 0;
    misses = 0;
  }

(* The immediate address form: [addr] shifted right by one bit fits an
   OCaml [int], and shifting that right by [line_bits - 1] (at least 1,
   as lines are at least 4 bytes) yields exactly the line number the
   64-bit address has, kernel-half addresses included. *)
let key addr = Int64.to_int (Int64.shift_right_logical addr 1)

let[@inline] access_key t k =
  let line = k lsr t.key_shift in
  let set = if t.set_mask >= 0 then line land t.set_mask else line mod t.sets in
  let base = set * t.ways in
  let tags = t.tags in
  let front = Array.unsafe_get tags base in
  if front = line then begin
    t.hits <- t.hits + 1;
    true
  end
  else begin
    (* Move [line] to the front: shift each entry one slot back until
       the slot that held [line] is overwritten (hit) or the last entry
       falls off the end (miss; the line is filled). *)
    Array.unsafe_set tags base line;
    let stop = base + t.ways in
    let carry = ref front in
    let w = ref (base + 1) in
    while !carry <> line && !w < stop do
      let next = Array.unsafe_get tags !w in
      Array.unsafe_set tags !w !carry;
      carry := next;
      incr w
    done;
    if !carry = line then begin
      t.hits <- t.hits + 1;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      false
    end
  end

let access t addr = access_key t (key addr)

(* The body of [Timing.walk]. It lives here so that [access_key]
   inlines into it: a level probe costs no call. *)
let walk levels k =
  let i = ref 0 in
  while !i < Array.length levels && not (access_key (Array.unsafe_get levels !i) k) do
    incr i
  done;
  !i

(* The tag array is the whole replacement state, so copying it gives a
   clone that hits and misses exactly as the original would. *)
let copy t = { t with tags = Array.copy t.tags }
let hits t = t.hits
let misses t = t.misses
let flush t = Array.fill t.tags 0 (Array.length t.tags) (-1)
