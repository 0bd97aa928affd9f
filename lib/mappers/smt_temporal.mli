(** SMT-based mapping ([44], restricted routing networks): placement is
    propositional (one op per PE), the schedule lives in integer
    difference logic with placement-conditional atoms; routing is lazy
    with placement blocking clauses.

    One {!Ocgra_core.Mapper.sweep}; [attempts] counts the candidate IIs
    stepped.  The deadline (with any attached cancellation hook) is
    threaded into the lazy SMT loop and the inner SAT search.  The
    context records one span per candidate II and the lazy-SMT tallies
    ([sat.conflicts], [sat.decisions], [sat.propagations],
    [smt.rounds]). *)
val mapper : Ocgra_core.Mapper.t
