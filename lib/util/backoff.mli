(** Retry-delay schedule: exponential backoff with a hard ceiling and
    seeded jitter.

    The supervisor's crash-class retries draw their delays from this
    policy, so retry behavior is uniform, capped, and (given a fixed
    jitter seed) fully deterministic: the same {!Elfie_util.Rng.t}
    stream always yields the same delay sequence. *)

type policy = {
  base_s : float;
      (** delay before the first retry (attempt 1); [0.0] disables
          sleeping entirely (and draws nothing from the rng) *)
  factor : float;  (** exponential growth per further retry *)
  max_s : float;
      (** hard ceiling: no computed delay ever exceeds this, jitter
          included *)
  jitter : float;
      (** +- fraction of the raw delay, drawn from the caller's rng;
          [0.0] disables the draw *)
}

(** [base_s = 0.05; factor = 2.0; max_s = 30.0; jitter = 0.25]. *)
val default : policy

(** A policy that never sleeps (base 0). *)
val none : policy

(** [delay policy ?rng ~attempt] is the delay in seconds before
    [attempt] (1-based: attempt 0 is the first try and always waits
    [0.]). The raw schedule is [base_s * factor ^ (attempt - 1)],
    jittered by a factor drawn uniformly from
    [[1 - jitter, 1 + jitter]] when [rng] is given, and clamped to
    [[0, max_s]]. With [base_s <= 0.] the rng is never advanced, so
    policies that disable backoff perturb no seed stream. *)
val delay : ?rng:Rng.t -> policy -> attempt:int -> float

(** [sleep policy ?rng ~attempt] sleeps for {!delay} (no-op when the
    delay is 0). *)
val sleep : ?rng:Rng.t -> policy -> attempt:int -> unit
