(** Routing back-end of the solver-based mappers (SA, GA, SAT, CP, ILP,
    SMT): turn a bare binding into a full mapping. *)

(** Strict sequential routing in topological order; when that fails
    and the binding is legal (capable PEs, no FU-slot collision), falls
    back to PathFinder-style negotiated routing of all edges at once.
    The result, when any, passes the independent checker. *)
val of_binding :
  ?obs:Ocgra_obs.Ctx.t ->
  Ocgra_core.Problem.t ->
  ii:int ->
  (int * int) array ->
  Ocgra_core.Mapping.t option
