(** ILP-based mappers on the in-tree simplex + branch & bound, matching
    the three ILP cells of Table I.  All three restrict the formulation
    (distance caps / nearest-neighbour placement) and rely on lazy
    strict routing; see DESIGN.md §4b.  Each records one span per solve
    and flushes the B&B core's tallies ([ilp.nodes], [ilp.lp_solves],
    [ilp.pruned], [ilp.improved]). *)

(** Spatial binding ILP ([34], [23], [35]): assignment binaries with
    pairwise distance caps.  Up to three solves per distance cap 1..3,
    escalating the cap when it is infeasible; [attempts] counts the
    solves. *)
val spatial : Ocgra_core.Mapper.t

(** Joint time-indexed binding+scheduling ILP ([41], [15]); intended
    for small arrays and kernels.  One {!Ocgra_core.Mapper.sweep} with
    two solves per II over a window of II + 3 cycles, capped at 12 s
    whatever the deadline says; [attempts] counts the solves. *)
val temporal : Ocgra_core.Mapper.t

(** Scheduling-only ILP ([15], [53]): re-time a heuristic binding from
    {!Constructive.map}; [attempts] is the constructive attempts plus
    one for the ILP solve. *)
val schedule : Ocgra_core.Mapper.t
