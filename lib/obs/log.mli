(** Structured event log: leveled, typed-attribute JSONL events in a
    bounded in-memory ring, with an optional file sink.

    Where {!Trace} answers "how long did each stage take" and
    {!Metrics} answers "how much of everything happened", [Log] answers
    "what exactly was going on just before things went wrong". Layers
    emit events ({!debug} … {!error}) with the same typed attributes as
    trace spans; each event renders as one self-contained JSON object
    per line (JSONL), so a dump is greppable and machine-parseable with
    no framing beyond newlines.

    The ring is process-global and domain-safe: emission, the ring
    update and the optional sink write happen under one mutex, so
    concurrent writers from the {!Elfie_util.Pool} domains never tear a
    line. The ring is bounded (default 2048 events, {!set_capacity});
    old events fall off silently — {!emitted} counts everything ever
    accepted. *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string
val level_of_string : string -> level option

(** One accepted event. [ev_ts] is absolute Unix time in seconds. *)
type event = {
  ev_ts : float;
  ev_level : level;
  ev_name : string;
  ev_pid : int;
  ev_attrs : Trace.attrs;
}

(** Minimum accepted level (default [Debug]); events below it are
    discarded before touching the ring or sink. *)
val set_level : level -> unit

val level : unit -> level

(** Resize the ring (default 2048); drops buffered events. *)
val set_capacity : int -> unit

val log : level -> ?attrs:Trace.attrs -> string -> unit
val debug : ?attrs:Trace.attrs -> string -> unit
val info : ?attrs:Trace.attrs -> string -> unit
val warn : ?attrs:Trace.attrs -> string -> unit
val error : ?attrs:Trace.attrs -> string -> unit

(** Buffered events, oldest first; [limit] keeps only the newest
    [limit]. *)
val recent : ?limit:int -> unit -> event list

(** Events accepted since the last {!reset}, including those the ring
    has since dropped. *)
val emitted : unit -> int

(** The ring as JSONL (one {!render}ed event per line). *)
val to_jsonl : ?limit:int -> unit -> string

(** Render one event as its JSONL line (no trailing newline). *)
val render : event -> string

(** Parse one JSONL line back; [None] if it is not a log line. Unknown
    members become attributes. *)
val parse_line : string -> event option

(** Also append every accepted event to this file (line-buffered,
    created if needed); [None] closes the sink. *)
val set_sink : string option -> unit

(** Clear the ring and counters (the sink is kept). *)
val reset : unit -> unit
