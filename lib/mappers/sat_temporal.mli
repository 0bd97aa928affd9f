(** SAT-based temporal mapping ([17]): binding, scheduling and routing
    encoded propositionally per candidate II.  The registered mappers
    first refute what {!Ocgra_core.Presolve} can from MII upward, try
    a decoupled FU-hop binding at the first II left, and start the
    solver there only when that misses; [map] sweeps from MII unless
    asked to presolve.  SAT at an II every smaller candidate of which
    was refuted certifies the optimal II; UNSAT certifies
    infeasibility within the schedule window.  Routes use FU hops only
    (no RF holds) and fan-out edges route separately; see DESIGN.md.

    The sweep is incremental by default: the x/y/h propositions are
    II-independent, so one solver instance serves every candidate II —
    per-II constraints join under an activation literal, each II is
    solved under that assumption, and refuted candidates are retired
    with a unit against their guard.  Learnt clauses, VSIDS activity
    and saved phases carry across the sweep (DESIGN.md §4i).

    Every solver instance (cold or incremental) breaks the array's
    symmetry: the highest-degree node (ties to the highest index) may
    run only on the smallest PE of each orbit of
    {!Ocgra_arch.Cgra.automorphisms}, by unguarded units that change
    no II's verdict. *)

(** (mapping, attempts, proven optimal, note), from one
    {!Ocgra_core.Mapper.sweep} in which UNSAT refutes a candidate II
    and an exhausted conflict budget gives it up; a failed sweep's
    note is "unsat up to max II", "budget" or "deadline".  [deadline]
    (with any attached cancellation hook) is threaded into the CDCL
    search as its [should_stop] hook.  [obs] records one span per candidate II and flushes the
    solver's conflict/decision/propagation tallies as per-II deltas
    ([sat.conflicts], ...), one [sat.symmetry] event per solver
    instance ([order] of the group, [v0], PEs [kept] for it) and the
    x literals pruned in [sat.sym_pruned].  [incremental:false] restores the
    cold-per-II baseline (a fresh solver per candidate II); cold and
    incremental sweeps reach the same verdict and the same final II,
    though not necessarily the same model.  [presolve] (default
    [false]) first runs {!Ocgra_core.Presolve.first_open} from MII in a
    [sat:presolve] span, counting each checked certificate in
    [sat.presolved] with a [sat.presolve] event and naming it in the
    note.  Call that first II no certificate refutes LB.  When LB is
    at most [max_ii], a [sat:bound] span then probes it: up to 4 tries
    ({!Ocgra_core.Mapper.tries} under [deadline]) of
    {!Sched.modulo_list_schedule} with the given rng, each bound by
    {!Iso_binding.bind}.  A result counts only if every node's time
    lies in the schedule window [asap v .. asap v + LB + slack] and
    {!Ocgra_core.Check.validate} finds nothing; it is then the answer,
    proven optimal with 1 attempt and no solver call, and counted in
    [sat.bound_hits].  A [sat.bound] event records [ii] and [hit]
    (1 or 0) either way.  On a miss the sweep starts at LB and the
    attempts count solver IIs only.  The note is the same either way.
    Without [presolve] the rng is unused. *)
val map :
  ?slack:int ->
  ?max_conflicts:int ->
  ?deadline:Ocgra_core.Deadline.t ->
  ?obs:Ocgra_obs.Ctx.t ->
  ?incremental:bool ->
  ?presolve:bool ->
  Ocgra_core.Problem.t ->
  Ocgra_util.Rng.t ->
  Ocgra_core.Mapping.t option * int * bool * string

val mapper : Ocgra_core.Mapper.t

(** The cold-per-II baseline as a registered mapper ("sat-cold"), with
    the same presolve and bound probe as {!mapper}: the CLI baseline
    that smoke.sh compares with "sat".  The bench's cold sweep calls
    [map ~incremental:false] directly, with no presolve. *)
val mapper_cold : Ocgra_core.Mapper.t
