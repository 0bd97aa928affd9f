(** Graph-based binding via subgraph isomorphism on the modulo
    time-extended CGRA (the EPIMap [28] / graph-minor [27] / backward
    simultaneous [47] school): list-schedule, materialise every
    dependence as a chain of Route nodes so each pattern edge spans one
    cycle, then embed the pattern with VF2 into {!Ocgra_core.Mrrg.host},
    the (PE, slot) graph of the FU-hop route model, on its
    {!Ocgra_core.Mrrg.live} cells.  Injectivity on (PE, slot) is
    exactly FU exclusivity.

    Runs on {!Sched.with_schedule} with up to 4 schedule-and-embed
    tries per II.  The deadline is checked between tries.  The context
    records one [iso:ii=N] span per embedding attempt and counts the
    tries ([iso.matches]). *)
val mapper : Ocgra_core.Mapper.t

(** [bind p ~ii times] embeds the schedule [times] (one cycle per node,
    as {!Sched.modulo_list_schedule} returns it) at [ii]: each edge
    becomes a chain of FU hops, one per cycle it waits, and the ops and
    hops are placed on distinct (PE, slot) pairs.  [None] when some
    edge would be read before it is produced or no embedding is found
    within the search budget.  The result is not validated. *)
val bind : Ocgra_core.Problem.t -> ii:int -> int array -> Ocgra_core.Mapping.t option
