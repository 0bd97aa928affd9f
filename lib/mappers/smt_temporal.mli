(** SMT-based mapping ([44], restricted routing networks): placement is
    propositional (one op per PE), the schedule lives in integer
    difference logic with placement-conditional atoms; routing is lazy
    with placement blocking clauses. *)

(** (mapping, attempts, proven optimal at MII), from one
    {!Ocgra_core.Mapper.sweep}.  [deadline] (with any attached
    cancellation hook) is threaded into the lazy SMT loop and the inner
    SAT search.  [obs] records one span per candidate II and flushes the
    lazy-SMT tallies ([sat.conflicts], [sat.decisions],
    [sat.propagations], [smt.rounds]). *)
val map :
  ?deadline:Ocgra_core.Deadline.t ->
  ?obs:Ocgra_obs.Ctx.t ->
  Ocgra_core.Problem.t ->
  Ocgra_util.Rng.t ->
  Ocgra_core.Mapping.t option * int * bool

val mapper : Ocgra_core.Mapper.t
