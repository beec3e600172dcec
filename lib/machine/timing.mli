(** The one microarchitecture model.

    Native ELFie runs need a ground-truth cycles-per-instruction figure,
    like the real hardware performance counters the paper reads with
    [perf], and the Sniper, CoreSim and gem5 simulators need their own
    estimates of the same run. Every one of these models is built from
    the two mechanisms below — a cache-hierarchy walk and a bimodal
    branch predictor — and differs from the others only in its penalty
    policy, which it keeps as data.

    The machine's own "hardware" ({!t}) charges a base cost per
    instruction class plus memory-hierarchy penalties (L1D/L2/LLC, LRU)
    and a mispredict penalty. It is deliberately simple: experiments
    only rely on CPI {e differences between program phases} being real,
    which cache and branch behaviour provide. *)

(** {2 Shared mechanisms} *)

(** [walk levels addr] accesses [addr] level by level, from the first
    (closest) cache, and stops at the first hit. It returns the index
    of that level, or [Array.length levels] (the memory level) when
    every level missed. Each level probed is filled on a miss. *)
val walk : Cache.t array -> int64 -> int

(** A fresh bimodal predictor: 4096 2-bit saturating counters indexed
    by bits 1..12 of the branch pc, all weakly taken. *)
val predictor : unit -> Bytes.t

(** [mispredicted p ~pc ~taken] is 1 if [p] predicted the conditional
    branch at [pc] wrong and 0 if it predicted it right, and trains the
    counter on the actual direction. *)
val mispredicted : Bytes.t -> pc:int64 -> taken:bool -> int

(** {2 The machine's timing model}

    Gainestown-flavoured constants (the paper's native testbed
    stand-in). *)

type t

val create : unit -> t

(** Independent clone (caches + predictor); identical future costs,
    no shared mutable state. Used by machine snapshots. *)
val copy : t -> t

(** Base cost of executing one instruction of a class. *)
val ins_cost : Elfie_isa.Insn.klass -> int

(** [mem_cost t k] is the penalty in cycles for a data access at the
    address whose {!Cache.key} is [k]. The machine's per-instruction
    paths pass immediates only, so no boxed [int64] crosses into this
    module. *)
val mem_cost : t -> int -> int

(** Penalty cycles for a conditional branch that was [taken], updating
    the predictor. [pc] is the branch pc as [Int64.to_int] gives it. *)
val branch_cost : t -> pc:int -> taken:bool -> int
