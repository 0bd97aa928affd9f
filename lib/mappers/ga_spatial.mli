(** GenMap-style spatial mapping by genetic algorithm ([19]). *)

(** (mapping, attempts): up to ten evolution runs, each followed by a
    strict extraction.  [deadline] is checked between runs.  [obs]
    records one span per evolution run and flushes the GA core's tally
    ([ga.evaluations]). *)
val map :
  ?deadline:Ocgra_core.Deadline.t ->
  ?obs:Ocgra_obs.Ctx.t ->
  Ocgra_core.Problem.t ->
  Ocgra_util.Rng.t ->
  Ocgra_core.Mapping.t option * int

val mapper : Ocgra_core.Mapper.t
