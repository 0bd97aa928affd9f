(** Routing back-end of the solver-based mappers (SA, GA, SAT, CP, ILP,
    SMT): turn a bare binding into a full mapping. *)

(** Strict sequential routing in topological order; when that fails
    and the binding is legal ({!Ocgra_core.Occupancy.of_binding}: live,
    capable PEs, no dead or shared FU slot), falls back to
    PathFinder-style negotiated routing of all edges at once against
    that ledger.  The result, when any, passes the independent
    checker. *)
val of_binding :
  ?obs:Ocgra_obs.Ctx.t ->
  Ocgra_core.Problem.t ->
  ii:int ->
  (int * int) array ->
  Ocgra_core.Mapping.t option
