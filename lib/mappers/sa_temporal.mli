(** DRESC-style temporal mapping by simulated annealing ([22], [30]):
    anneal a full node->(PE, cycle) binding under an FU-collision +
    timing-feasibility + wirelength cost, then strict-route (with
    negotiated fallback) at extraction.

    One {!Ocgra_core.Mapper.sweep} with up to 3 annealing restarts per
    II under the default schedule; a spatial problem gets no mapping
    and no attempt.  The deadline is checked between restarts.  The
    context records one span per annealing restart and the annealer's
    tallies ([sa.steps], [sa.accepted]). *)
val mapper : Ocgra_core.Mapper.t
