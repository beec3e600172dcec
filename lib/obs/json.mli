(** A minimal JSON value type, parser and printer.

    Just enough JSON for the observability layer's own formats: the
    Chrome [trace_event] files {!Trace.to_chrome} writes, and the
    one-object-per-line event log {!Log} emits. Numbers are floats, [\u] escapes above U+00FF decode
    to ['?']; this is not a general-purpose JSON library and is not
    meant to be one. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Escape a string for inclusion inside JSON quotes (no surrounding
    quotes added). *)
val escape : string -> string

(** Render compactly (no whitespace). Object member order is
    preserved. *)
val to_string : t -> string

(** Parse one complete JSON value; trailing bytes are an error. *)
val parse : string -> (t, string) result

(** {1 Accessors} — [None] on a type mismatch. *)

val member : string -> t -> t option
val to_list : t -> t list option
val to_float : t -> float option
val to_str : t -> string option
