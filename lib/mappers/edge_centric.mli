(** Edge-centric modulo scheduling (EMS, Park et al. [37]): the router
    drives placement — each consumer lands on the cheapest (PE, cycle)
    reachable from its primary producer's routing cost field. *)

val attempt :
  Ocgra_core.Problem.t -> Ocgra_util.Rng.t -> ii:int -> Ocgra_core.Mapping.t option

(** (mapping, attempts, proven optimal at MII), from one
    {!Ocgra_core.Mapper.sweep} with up to 8 restarts per II.
    [deadline] is checked between restarts.  [obs] records one span per candidate-II attempt and the
    total attempt tally ([ems.attempts]). *)
val map :
  ?deadline:Ocgra_core.Deadline.t ->
  ?obs:Ocgra_obs.Ctx.t ->
  Ocgra_core.Problem.t ->
  Ocgra_util.Rng.t ->
  Ocgra_core.Mapping.t option * int * bool

val mapper : Ocgra_core.Mapper.t
