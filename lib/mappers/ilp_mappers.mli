(** ILP-based mappers on the in-tree simplex + branch & bound, matching
    the three ILP cells of Table I.  All three restrict the formulation
    (distance caps / nearest-neighbour placement) and rely on lazy
    strict routing; see DESIGN.md §4b. *)

(** Spatial binding ILP ([34], [23], [35]): assignment binaries with
    pairwise distance caps, escalating the cap on infeasibility. *)
val spatial : Ocgra_core.Mapper.t

(** Joint time-indexed binding+scheduling ILP ([41], [15]); intended
    for small arrays and kernels. *)
val temporal : Ocgra_core.Mapper.t

(** Scheduling-only ILP ([15], [53]): re-time a heuristic binding. *)
val schedule : Ocgra_core.Mapper.t

(** The underlying map functions: (mapping, attempts[, proven optimal
    at MII]).  [obs] records one span per solve and flushes the B&B
    core's tallies ([ilp.nodes], [ilp.lp_solves], [ilp.pruned],
    [ilp.improved]). *)

(** Up to three solves per distance cap 1..3, escalating the cap when
    it is infeasible. *)
val spatial_map :
  ?deadline:Ocgra_core.Deadline.t ->
  ?obs:Ocgra_obs.Ctx.t ->
  Ocgra_core.Problem.t ->
  Ocgra_util.Rng.t ->
  Ocgra_core.Mapping.t option * int

(** One {!Ocgra_core.Mapper.sweep} with two solves per II over a window
    of II + 3 cycles, capped at 12 s whatever [deadline] says. *)
val temporal_map :
  ?deadline:Ocgra_core.Deadline.t ->
  ?obs:Ocgra_obs.Ctx.t ->
  Ocgra_core.Problem.t ->
  Ocgra_util.Rng.t ->
  Ocgra_core.Mapping.t option * int * bool

val schedule_map :
  ?deadline:Ocgra_core.Deadline.t ->
  ?obs:Ocgra_obs.Ctx.t ->
  Ocgra_core.Problem.t ->
  Ocgra_util.Rng.t ->
  Ocgra_core.Mapping.t option * int
