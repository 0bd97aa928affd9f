(** Constraint-programming temporal mapping ([43]): places and times as
    finite-domain variables, FU exclusivity via all-different over
    channelled (PE, slot) variables, dependence timing against
    hop-distance tables; routing is lazy (strict route + randomised
    re-solve on failure). *)

(** (mapping, attempts, proven optimal at MII), from one
    {!Ocgra_core.Mapper.sweep} with one CP search per II of at most
    [max_failures] failures (default 15000) and [routing_retries]
    randomised re-solves (default 5); [attempts] counts the candidate
    IIs stepped.  [deadline] (with any attached
    cancellation hook) is threaded into the CP search.  [obs] records
    one span per candidate II and flushes the solver's
    failure/decision/propagation tallies ([cp.failures], ...). *)
val map :
  ?max_failures:int ->
  ?routing_retries:int ->
  ?deadline:Ocgra_core.Deadline.t ->
  ?obs:Ocgra_obs.Ctx.t ->
  Ocgra_core.Problem.t ->
  Ocgra_util.Rng.t ->
  Ocgra_core.Mapping.t option * int * bool

(** {!map} with its defaults. *)
val mapper : Ocgra_core.Mapper.t
