(** Structural presolve for the exact temporal sweep: cheap necessary
    conditions that refute a candidate II before any solver runs, each
    refutation carried by a certificate that {!check} re-verifies in
    integer arithmetic.

    The rules are sound only for the FU-hop route model ({!Mrrg.Fu_hop})
    — values move by one-cycle FU hops, never wait in a register file,
    and every edge routes separately (no fan-out sharing) — and they
    count and test (PE, slot) cells with {!Mrrg.live}.  That is exactly
    the [Sat_temporal] encoding; the heuristic mappers route through RF
    holds, so a certificate says nothing about them.  [Mii.mii] is
    deliberately not raised by the presolve: it stays the
    model-independent bound that [ii_ratio] divides by. *)

type rule =
  | Slot_count of { needed : int; live : int; y : int array }
      (** [needed = n + H] op-plus-hop slots exceed the [live] (PE, slot)
          pairs.  [y] (one entry per edge, in [Dfg.edges] order) are the
          dual multipliers: [y >= 0] and, at every node,
          Σ_in y − Σ_out y ≤ indeg − outdeg, which makes
          H = Σ_e (lat_src − dist·II)(y_e − 1) a lower bound on the
          hops of any schedule. *)
  | Neighbourhood of { node : int; degree : int; room : int }
      (** II = 1 only: [node] has [degree] distinct DFG neighbours
          (self-loops excluded), more than the [room] of the roomiest
          live PE that supports its op. *)
  | Embedding of { ops : int; slots : int; vf2_nodes : int; dfs_nodes : int }
      (** II = 1 only: the [ops] fill all [slots] live PEs, so no edge
          can take a hop, and the DFG (self-loops and parallel edges
          dropped) does not embed into the directed link graph with
          each op on a live PE that supports it.  Both embedders
          searched to completion: [vf2_nodes] and [dfs_nodes] are
          their search-node counts.  {!check} re-runs only the second,
          so [vf2_nodes] is a record, not a checked claim. *)

(** [model] is the route model the certificate assumes; there is one,
    {!Mrrg.Fu_hop}. *)
type certificate = { ii : int; model : Mrrg.route_model; rule : rule }

(** The [Embedding] rule's two embedders of the DFG into the directed
    link graph, each with its search-node count ([budget] when
    [Exhausted]): [Ocgra_graph.Iso]'s VF2, and the plain backtracking
    search {!check} re-derives the verdict with.  [budget] defaults to
    200 000 search nodes. *)
val vf2_embedding : ?budget:int -> Problem.t -> Ocgra_graph.Iso.search * int

val dfs_embedding : ?budget:int -> Problem.t -> Ocgra_graph.Iso.search * int

(** A certificate that the II admits no FU-hop mapping, or [None] when
    no rule refutes it.  The rules are tried in order: slot count, then
    (at II = 1) neighbourhood, then embedding.  The embedding rule
    abstains unless both embedders finish within [budget] search
    nodes (default 200 000) and find nothing. *)
val refute : ?budget:int -> Problem.t -> ii:int -> certificate option

(** Independent re-verification: recomputes every number from the
    problem in integers (no LP, no VF2) and accepts only a certificate
    whose stated numbers match and whose inequality holds.  An
    [Embedding] certificate needs the backtracking embedder to finish
    within [budget] search nodes, finding no embedding, after exactly
    [dfs_nodes] of them. *)
val check : ?budget:int -> Problem.t -> certificate -> bool

(** [first_open p ~from ~upto] walks II = [from], [from]+1, ... and
    stops at the first II no rule refutes; a refutation that fails
    {!check} also stops the walk.  Returns that II ([upto] + 1 when
    every candidate is refuted) and the checked certificates, lowest
    II first. *)
val first_open : Problem.t -> from:int -> upto:int -> int * certificate list

(** e.g. ["II=2 refuted by slot count 9 > 8 [fu-hop]"]. *)
val to_string : Problem.t -> certificate -> string
