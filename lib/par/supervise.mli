(** Fault-tolerant execution over the Domain pool: per-task outcomes
    instead of raise-through, bounded retries, and a quarantine list
    so a deterministically-poisonous task degrades the result set
    instead of killing the run.

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

(** 1: extra tries after the first, so a task gets at most [1 +
    retries] tries.  This is the one meaning of a retry count across
    the system: [Mapper.Harness.run], the mapping service and
    reliability campaigns count the same way and default to this. *)
val default_retries : int

type 'a summary = {
  outcomes : 'a outcome array;  (** one per task, in task order *)
  tries : int array;  (** tries started per task *)
  retried : int;  (** total extra tries across all tasks *)
  quarantined : int list;  (** ascending indices that exhausted every try *)
}

(** [run tasks] evaluates each task on the pool (worker semantics as
    {!Pool.run}).  A raising try is rerun at once, up to [retries]
    (default {!default_retries}) extra times; a task whose every try
    raised is [Failed] and quarantined.  [chaos] injects seeded
    failures per (task, try) — see {!Chaos}.  A live [obs] tallies
    [supervise.retries], [supervise.ok], [supervise.failed] and
    [supervise.quarantined], records a [supervise:retry-<i>#<k>] span
    per retry, and emits a [supervise.task] event, in task order, for
    every task that was retried or failed.  Raises [Invalid_argument]
    on a negative retry count. *)
val run :
  ?workers:int ->
  ?obs:Ocgra_obs.Ctx.t ->
  ?retries:int ->
  ?chaos:Chaos.t ->
  (unit -> 'a) array ->
  'a summary
