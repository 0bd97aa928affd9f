(** Fault-tolerant execution over the Domain pool: per-task outcomes
    instead of raise-through, bounded seeded retries with exponential
    backoff + jitter, per-try watchdogs, and a quarantine list so a
    deterministically-poisonous task degrades the result set instead
    of killing the run.

    {!Pool.run} keeps its strict policy (one raising task re-raises
    after the drain) for callers whose result is meaningless without
    every task; campaigns and sweeps that want partial results run
    here instead.  Thunks handed to the pool by this layer never
    raise, so the two policies compose without surprises.

    Determinism: with deterministic tasks and a seeded {!Chaos.t}, the
    outcome array, try counts and quarantine list are pure functions
    of the inputs — worker count and scheduling never show through. *)

type 'a outcome =
  | Ok of 'a
  | Failed of exn  (** exhausted retries; carries the last exception *)
  | Timed_out  (** last try raised after its watchdog expired *)
  | Cancelled  (** the shared cancel flag fired first *)

val outcome_to_string : _ outcome -> string

type policy = {
  retries : int;
      (** extra tries after the first (>= 0), so a task gets at most
          [1 + retries] tries.  This is the one meaning of a retry
          count across the system: [Mapper.Harness.run],
          the mapping service and reliability campaigns count the
          same way and default to [default_policy.retries]. *)
  backoff_s : float;  (** sleep before retry k is [backoff_s * factor^k] ... *)
  backoff_factor : float;
  jitter : float;  (** ... spread by ±[jitter] from a per-task seeded stream *)
  timeout_s : float option;  (** per-try watchdog, observed via the task's stop hook *)
  seed : int;  (** keys the jitter streams *)
}

(** 1 retry, 2 ms base backoff doubling per try, ±25% jitter, no
    watchdog.  Its [retries] is the system-wide retry default. *)
val default_policy : policy

type 'a summary = {
  outcomes : 'a outcome array;  (** one per task, in task order *)
  tries : int array;  (** tries actually started per task (0 if cancelled first) *)
  retried : int;  (** total extra tries across all tasks *)
  quarantined : int list;  (** ascending indices that exhausted every try *)
}

(** The [Ok] payloads in task order — the degraded result set. *)
val ok_results : 'a summary -> 'a list

(** [run tasks] evaluates each [task] as [task stop] on the pool
    (worker semantics as {!Pool.run}).  [stop] turns true when the
    per-try watchdog ([policy.timeout_s]) runs out or [cancel] fires;
    tasks should poll it at their checkpoints, exactly like a
    [Deadline.should_stop].  A raising try is retried after a
    cancellation-aware backoff sleep; a try that raises after its
    watchdog expired is classified [Timed_out] (the stop signal gets
    the blame, as in the mapper harness).  [chaos] injects seeded
    failures/delays per (task, try) — see {!Chaos}.  A live [obs]
    tallies [supervise.retries], [supervise.ok], [supervise.failed],
    [supervise.timed_out], [supervise.cancelled] and
    [supervise.quarantined], and records a [supervise:retry-<i>#<k>]
    span per retry.  Raises [Invalid_argument] on a negative retry
    count. *)
val run :
  ?workers:int ->
  ?obs:Ocgra_obs.Ctx.t ->
  ?policy:policy ->
  ?cancel:Cancel.t ->
  ?chaos:Chaos.t ->
  ((unit -> bool) -> 'a) array ->
  'a summary
