(** Per-thread architectural register state.

    Mirrors what a pinball [.reg] file captures: general-purpose
    registers, instruction pointer, flags, FS/GS bases, and the
    XSAVE-style extended state (here: 16 x 128-bit vector registers).
    The extended state has a fixed binary layout ({!xsave_size} bytes)
    loaded and stored by the [Ldctx]/[Stctx] instructions, mirroring
    XRSTOR/XSAVE. *)

type t = {
  gprs : Bytes.t;
      (** 16 × 8-byte host-endian register slots, indexed by
          [8 * Reg.gpr_index]. A byte buffer rather than an
          [int64 array] so register reads/writes move unboxed values
          (no allocation, no write barrier on the interpreter's hot
          path); access it through {!get}/{!set} or, from compiled
          code, the raw-buffer primitives {!get64}/{!set64}. *)
  mutable rip : int64;
  flags : Elfie_isa.Reg.flags;
  mutable fs_base : int64;
  mutable gs_base : int64;
  xmm : bytes;  (** [16 * Reg.xmm_count] bytes of vector state *)
}

val create : unit -> t
val copy : t -> t
val get : t -> Elfie_isa.Reg.gpr -> int64
val set : t -> Elfie_isa.Reg.gpr -> int64 -> unit

(** Byte offset of a register's slot in {!field-gprs}: [8 * Reg.gpr_index r]. *)
val gpr_offset : Elfie_isa.Reg.gpr -> int

(** Unchecked host-endian 64-bit accessors over {!field-gprs}, at the
    byte offset {!gpr_offset} gives. Primitives rather than functions,
    so a caller in another module moves the value unboxed even when
    cross-module inlining is off (dune's dev profile compiles with
    [-opaque]). The offset is not checked. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(** Lane accessors for the vector unit: [xmm_lane ctx i lane] reads
    64-bit lane 0 or 1 of register [i]. *)
val xmm_lane : t -> int -> int -> int64

val set_xmm_lane : t -> int -> int -> int64 -> unit

(** Byte size of the serialized extended-state area. *)
val xsave_size : int

(** Serialize the extended state (vector registers only, like the
    FXSAVE/XSAVE area of the paper's context structure part one). *)
val xsave : t -> bytes

(** Load extended state from an XSAVE image; raises [Invalid_argument]
    on short input. *)
val xrstor : t -> bytes -> unit

(** Full-context serialization, used by pinball [.reg] files. *)
val to_bytes : t -> bytes

val of_bytes : bytes -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
