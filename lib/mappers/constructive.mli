(** Constructive modulo scheduling with integrated greedy placement and
    routing — the workhorse heuristic (iterative modulo scheduling /
    deterministic DRESC lineage).  The II loop starts at the MII lower
    bound, so success at MII is provably optimal. *)

(** A topological order sorted by ASAP level then height, with random
    tie-breaking (the restart diversification). *)
val topo_order_by_height : Ocgra_util.Rng.t -> Ocgra_dfg.Dfg.t -> int list

(** Map at the smallest feasible II with [restarts] random restarts
    per II (default 8), each one placement attempt whose [time_slack]
    (default 6) widens the time window tried per candidate PE; returns
    (mapping, attempts, achieved the MII bound).  [deadline] is polled
    between attempts.  [obs] receives, once per call, the totals over
    all attempts: placement attempts ([constructive.attempts]),
    candidate (PE, cycle) slots enumerated ([constructive.candidates]),
    nodes placed ([constructive.placements]), candidates with a free
    FU slot dropped without a search because an in-edge's
    reachability field rules them out ([constructive.pruned]), and
    router searches, those fields included ([route.searches]). *)
val map :
  ?restarts:int ->
  ?time_slack:int ->
  ?deadline:Ocgra_core.Deadline.t ->
  ?obs:Ocgra_obs.Ctx.t ->
  Ocgra_core.Problem.t ->
  Ocgra_util.Rng.t ->
  Ocgra_core.Mapping.t option * int * bool
