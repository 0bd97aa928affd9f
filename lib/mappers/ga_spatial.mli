(** GenMap-style spatial mapping by genetic algorithm ([19]): up to ten
    evolution runs, each followed by a strict extraction; [attempts]
    counts the runs.  The deadline is checked between runs.  The
    context records one span per evolution run and the GA core's tally
    ([ga.evaluations]). *)
val mapper : Ocgra_core.Mapper.t
