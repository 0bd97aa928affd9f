(** Spatial mapping by simulated annealing over placements (the
    SPR/SNAFU/DSAGEN school [49], [33], [32]). *)

(** (mapping, attempts): up to ten annealing runs, each followed by a
    strict extraction.  [deadline] is checked between runs.  [obs]
    records one span per annealing run and flushes the annealer's
    tallies ([sa.steps], [sa.accepted]). *)
val map :
  ?deadline:Ocgra_core.Deadline.t ->
  ?obs:Ocgra_obs.Ctx.t ->
  Ocgra_core.Problem.t ->
  Ocgra_util.Rng.t ->
  Ocgra_core.Mapping.t option * int

val mapper : Ocgra_core.Mapper.t
