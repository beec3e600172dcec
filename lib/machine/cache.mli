(** Set-associative cache model with LRU replacement.

    Hierarchies of these caches are walked by {!Timing.walk}, which the
    machine's built-in "hardware" timing model and the Sniper/CoreSim/gem5
    simulators share. Purely a hit/miss model:
    only tags are stored, one recency-ordered array per set (most recent
    line first). A hit on the most recent line costs one compare; any
    other access moves its line to the front, so a miss evicts the last
    entry. That order is the cache's whole state: {!copy} duplicates one
    int array, and nothing else is tracked per access. *)

type config = {
  size_bytes : int;
  ways : int;
  line_bytes : int;  (** power of two, at least 4 *)
}

(** Raises [Invalid_argument] unless [size_bytes] and [ways] are
    positive, [line_bytes] is a power of two of at least 4, and
    [size_bytes] is a multiple of [ways * line_bytes]. *)
val config : size_bytes:int -> ways:int -> line_bytes:int -> config

type t

(** An empty cache: every entry invalid, counters zero. *)
val create : config -> t

(** [access t addr] returns [true] on hit and updates LRU state;
    on miss the line is filled. *)
val access : t -> int64 -> bool

(** [key addr] is the immediate form of a 64-bit address the hot paths
    pass instead of the boxed [int64]:
    [Int64.to_int (Int64.shift_right_logical addr 1)]. Every line size
    (at least 4 bytes) recovers the exact line number from it. *)
val key : int64 -> int

(** {!Timing.walk} over an address in its {!key} form: the one
    cache-hierarchy walk. *)
val walk : t array -> int -> int

(** Independent structural clone — identical future hit/miss behaviour,
    identical stats, no shared mutable state (machine snapshots). *)
val copy : t -> t

val hits : t -> int
val misses : t -> int

(** Drop all lines (e.g. a TLB flush perturbation), keeping stats. *)
val flush : t -> unit
