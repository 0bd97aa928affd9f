(** Negotiated-congestion routing (PathFinder, as SPR ported it to
    CGRAs): route every edge of a fixed binding simultaneously under
    soft resource prices, raising history costs on over-subscribed
    resources until the routes untangle. *)

(** [route_all p occ binding ~max_iters] returns a checker-valid full
    mapping at [occ.ii], or [None] when an edge is unroutable or
    negotiation does not converge within the budget.  Each
    rip-up-and-reroute round bumps the [pathfinder.iterations] counter
    of [?obs].

    [occ] is the ledger negotiated against: it must hold dead silicon
    and every binding ({!Occupancy.of_binding} builds that), plus any
    routes the caller freezes.  Its claims are hard obstacles, its RF
    load is baseline pressure (assumed to fit every register file), and
    it is only read.  [?only] restricts negotiation to the given edge
    indices; [?init_routes] supplies the untouched routes of the rest,
    copied into the returned mapping (the incremental form {!Repair}
    uses).  The final mapping is validated whole, so a frozen route
    that turned illegal still fails the call rather than slipping
    through. *)
val route_all :
  ?obs:Ocgra_obs.Ctx.t ->
  ?only:int list ->
  ?init_routes:Mapping.route array ->
  Problem.t ->
  Occupancy.t ->
  (int * int) array ->
  max_iters:int ->
  Mapping.t option
