(** Spatial mapping by simulated annealing over placements (the
    SPR/SNAFU/DSAGEN school [49], [33], [32]): up to ten annealing runs,
    each followed by a strict extraction; [attempts] counts the runs.
    The deadline is checked between runs.  The context records one span
    per annealing run and the annealer's tallies ([sa.steps],
    [sa.accepted]). *)
val mapper : Ocgra_core.Mapper.t
