(** Incremental mapping repair under a new fault mask: salvage a
    previously checker-valid mapping on a further-degraded array
    through a certified escalation ladder instead of remapping cold.

    The ladder, cheapest rung first ({!Mapper.rung}):

    + {e untouched} — the new mask does not touch the mapping; certify
      and return it as is.
    + {e route-only} — every binding survives; freeze all healthy
      placements and routes as pre-claimed occupancy and rip-up/
      re-route only the invalidated edges by PathFinder negotiation.
    + {e re-place} — ops sitting on dead resources are displaced to
      nearby healthy PEs (deterministic spiral candidate order, same
      cycle), then their fan-in/fan-out is re-routed.
    + {e ii-bump} — retry at II+1 (then +2, ...) reusing the surviving
      schedule as the seed: bindings keep their cycles, colliding or
      newly-illegal ops are displaced, all edges re-routed.
    + {e fallback} — hand the problem to {!Mapper.Harness.race} over
      the caller's chain: the cold-solve safety net.

    Every rung's candidate is re-certified by {!Check.validate} under
    the new mask before it is returned — an uncertified mapping can
    never escape, whatever the rung.  Rungs 1–4 are sequential and
    deterministic in their inputs (same problem, mapping and seed give
    byte-identical outcomes for any worker count) and never lower the
    II; only the fallback race is timing-dependent (and only when the
    chain has two or more tiers and [workers > 1]). *)

(** What the new fault mask breaks, recomputed from the fault-masked
    arch queries (never by string-matching validator output).
    RF-capacity losses ([Rf_reduced]) are attributed greedily in edge
    order: the first routes to fit the shrunken file keep it, later
    ones are broken.  Deterministic. *)
type diagnosis = {
  dead_nodes : int list;
      (** ids whose binding the new mask invalidates (downed PE, dead
          FU slot, lost capability), ascending *)
  broken_edges : int list;
      (** edge indices whose route the new mask invalidates (dead
          hop/hold resource, downed link, RF capacity loss, or a dead
          endpoint), ascending *)
}

val diagnosis_to_string : diagnosis -> string

(** No rung above {!outcome.rung}'s winner is consulted; a failed rung
    escalates to the next.  One record per attempted rung, in ladder
    order, with the winner's verdict [Repaired rung]. *)
type outcome = {
  mapping : Mapping.t option;  (** certified under the new mask, or [None] *)
  rung : Mapper.rung option;  (** the certifying rung; [None] = all failed *)
  diagnosis : diagnosis;
  elapsed_s : float;
  note : string;
  trail : Mapper.tier_report list;
}

(** [repair p m] salvages [m] — checker-valid under the array's
    previous fault mask — for [p], whose [cgra] carries the new mask on
    the same fabric (same dimensions and PE kinds; a different-shaped
    array fails cleanly).  The ladder runs under the one [?deadline]
    budget: an expired clock stops escalation and fails the repair
    rather than emitting an uncertified mapping.

    [?fallback] is the {!Mapper.Harness.race} chain of the last rung
    (default [[]]: the rung is skipped); [?workers] its domain count.
    Each PathFinder negotiation runs at most 24 rounds, and the ii-bump
    rung climbs at most 2 past the original II (within the problem's
    own bound).

    [?obs] attribution: counters [repair.diagnosed] (invalidated
    bindings + routes), [repair.ripped] / [repair.rerouted] (edges
    ripped up / successfully re-routed), [repair.displaced] (ops
    moved), [repair.escalations] (rungs that failed over to the next),
    and one [repair:<rung>] span per attempted rung. *)
val repair :
  ?seed:int ->
  ?deadline:Deadline.t ->
  ?obs:Ocgra_obs.Ctx.t ->
  ?fallback:Mapper.t list ->
  ?workers:int ->
  Problem.t ->
  Mapping.t ->
  outcome
