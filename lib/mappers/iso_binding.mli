(** Graph-based binding via subgraph isomorphism on the modulo
    time-extended CGRA (the EPIMap [28] / graph-minor [27] / backward
    simultaneous [47] school): list-schedule, materialise every
    dependence as a chain of Route nodes so each pattern edge spans one
    cycle, then embed the pattern into the (PE, slot) graph with VF2.
    Injectivity on (PE, slot) is exactly FU exclusivity.

    Runs on {!Sched.with_schedule} with up to 4 schedule-and-embed
    tries per II.  The deadline is checked between tries.  The context
    records one [iso:ii=N] span per embedding attempt and counts the
    tries ([iso.matches]). *)
val mapper : Ocgra_core.Mapper.t
