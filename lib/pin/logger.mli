(** The PinPlay logger: captures a region of execution as a pinball.

    The program runs natively up to the region start (measured in
    aggregate instructions over all threads, the PinPoints convention),
    a checkpoint of registers, memory and OS-visible state is taken,
    and the region itself then runs while the logger records

    - the initial content of every page the region touches (lean mode)
      or of every mapped page ([-log:fat] mode, [~fat:true]),
    - each system call's result and kernel memory side effects,
    - the thread interleaving actually executed.

    Capture is windowed and hook-free wherever it can be. System calls
    and the schedule come from the kernel's recorder and the machine's
    schedule recording, which cost no instrumentation. The memory
    checkpoint is a copy-on-write {!Elfie_machine.Addr_space.freeze}:
    no page is copied at region start, and the running program copies
    only the pages it later writes. The one Vpin tool the logger owns,
    the touched-page tracker, is needed only for lean pinballs, and is
    attached only while a lean region is being recorded. Fast-forward
    and fat capture therefore run on the machine's uninstrumented chain
    tier. Instructions retired with the tracker attached are counted in
    [elfie_logger_hooked_instructions_total]; each call is traced as a
    [logger.capture] span.

    The result replays deterministically under {!Replayer} and converts
    to an ELFie with {!Elfie_core.Pinball2elf}. *)

type region = {
  start : int64;  (** aggregate instruction count at which the region begins *)
  length : int64;  (** aggregate instructions in the region *)
}

(** Raised when the process layout cannot be checkpointed — e.g. a
    thread exited before the region started, leaving a tid gap. *)
exception Unsupported of string

type result = {
  pinball : Elfie_pinball.Pinball.t;
  reached_end : bool;  (** false if the program exited inside the region *)
}

(** [capture ?fat spec ~name region] runs the program and checkpoints
    the region. [fat] defaults to [true] (every pinball meant for ELFie
    conversion must be fat). [scheduler] overrides the interleaving of
    the logging run — Pin-style instrumentation effectively time-slices
    threads finely, which a small-quantum [Free] scheduler models. *)
val capture :
  ?fat:bool ->
  ?scheduler:Elfie_machine.Machine.scheduler ->
  Run.spec ->
  name:string ->
  region ->
  result

(** [capture_many spec requests] checkpoints several (possibly
    overlapping) regions in a single execution of the program — the
    PinPoints batch mode. Results are keyed by request name. A region
    the program exits inside is reported with [reached_end = false] and
    a truncated pinball; a region whose start the program never reaches
    is dropped from the result. *)
val capture_many :
  ?fat:bool ->
  ?scheduler:Elfie_machine.Machine.scheduler ->
  Run.spec ->
  (string * region) list ->
  (string * result) list

(** [icount_at_marker spec ~payload ~occurrence] runs the program until
    the [occurrence]-th execution (1-based) of the SSC marker with
    [payload] and returns the aggregate instruction count at that point
    — a marker-delimited region trigger à la PinPlay's
    [-log:start_address]. [None] if the marker never fires that often.
    Deterministic for a given spec seed, so the returned count can be
    fed straight to {!capture}. *)
val icount_at_marker :
  ?scheduler:Elfie_machine.Machine.scheduler ->
  Run.spec ->
  payload:int64 ->
  occurrence:int ->
  int64 option
