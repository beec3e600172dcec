(** Vpin: the dynamic-instrumentation facade.

    Plays the role Pin plays in the paper: analysis tools declare
    callbacks (instruction, memory, branch, syscall-marker, thread
    events) and [attach] multiplexes any number of tools onto one
    machine's single hook slots. The logger, the BBV profiler and
    user-written analysis tools are all Vpin tools and can run
    simultaneously, like Pintools sharing one Pin process. *)

type t = {
  name : string;
  on_ins : (int -> int64 -> Elfie_isa.Insn.t -> unit) option;
  on_mem_read : (int -> int64 -> int -> unit) option;
  on_mem_write : (int -> int64 -> int -> unit) option;
  on_branch : (int -> int64 -> int64 -> bool -> unit) option;
  on_marker : (int -> Elfie_isa.Insn.t -> unit) option;
  on_thread_start : (int -> unit) option;
  on_thread_exit : (int -> int -> unit) option;
}

(** A tool with no callbacks; override the fields you need. *)
val empty : name:string -> t

(** Attach tools to a machine, chaining with any hooks already
    installed. Returns a detach function restoring the previous hooks. *)
val attach : Elfie_machine.Machine.t -> t list -> unit -> unit

(** [attach_from_marker machine tool] attaches [tool] when the first ROI
    marker ({!Elfie_isa.Insn.is_marker}) executes, so the code before
    the region runs hook-free on the machine's chain tier. The marker
    instruction itself is not observed by [tool]. [~armed:true]
    attaches [tool] at once instead. Returns a detach function that
    also reports how many instructions retired before [tool] was
    attached (all of them when no marker ran). *)
val attach_from_marker :
  ?armed:bool -> Elfie_machine.Machine.t -> t -> unit -> int64

(** Count of instrumented instructions seen by an [on_ins]-only probe —
    convenience for overhead experiments. *)
val instruction_counter : unit -> t * (unit -> int64)
