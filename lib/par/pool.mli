(** A work-stealing-free domain pool: parallel evaluation of an array
    of independent thunks on stdlib [Domain]s (OCaml 5, no domainslib).

    Tasks are claimed from a shared atomic counter, so the pool load
    balances uneven tasks; results land at the index of their thunk, so
    the output order never depends on scheduling.  With one worker (or
    one task) no domain is spawned and evaluation is today's sequential
    loop — callers degrade gracefully on a 1-core host.

    Thread-safety contract for thunks: they run concurrently on
    separate domains, so they must not share mutable state (in
    particular, never a shared [Ocgra_util.Rng.t] — split it, or
    pre-draw seeds, before the fan-out; see rng.mli). *)

(** Worker count used when [?workers] is omitted: the [OCGRA_JOBS]
    environment variable if set to a positive integer, else
    [Domain.recommended_domain_count ()]. *)
val default_workers : unit -> int

(** [run ?workers tasks] evaluates every thunk and returns their
    results in task order.  If any task raises, the first (lowest
    index) exception is re-raised after all workers have drained —
    the strict policy, for callers whose result is meaningless
    without every task.  Callers that want partial results under
    failure (campaigns, bench sweeps) run through {!Supervise}
    instead, which retries, quarantines and never re-raises.
    [workers] is clamped to at least 1 and never exceeds the task
    count.  A live [?obs] records one span per task (on the claiming
    worker's domain lane) and a [pool.tasks.w<k>] claim counter per
    worker; the default {!Ocgra_obs.Ctx.off} costs one branch. *)
val run : ?workers:int -> ?obs:Ocgra_obs.Ctx.t -> (unit -> 'a) array -> 'a array

(**/**)

(** Internal: resolve an optional worker request against the default
    and a task count. *)
val resolve : int option -> int -> int

(** Internal plumbing shared with {!Race}: [workers] must already be
    resolved; [on_done i v] runs on the worker domain right after task
    [i] returns [v] (not called for raising tasks). *)
val drain :
  ?obs:Ocgra_obs.Ctx.t ->
  workers:int ->
  on_done:(int -> 'a -> unit) ->
  (unit -> 'a) array ->
  'a array
