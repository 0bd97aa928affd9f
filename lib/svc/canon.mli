(** Canonical form of a kernel for the mapping cache.

    Two requests whose DFGs differ only by node numbering (and by
    mapping-irrelevant decoration: node names, immediate values, array
    names) describe the same mapping problem, so they must land on the
    same cache entry.  The canonical form is a Weisfeiler–Leman colour
    refinement over the labelled dependence multigraph:

    - node labels capture exactly what PE capability checking sees —
      whether the op needs an immediate slot, its functional class, and
      its latency (see [Pe.supports]);
    - edge labels carry the (port, dist) pair, encoded as a digraph
      weight, because operand port and loop-carried distance both
      constrain routing.

    Isomorphic DFGs always refine to the same fingerprint (no false
    misses); a fingerprint match is then confirmed — and the actual node
    bijection recovered — by {!witness}, an exact labelled-multigraph
    isomorphism, so a hash collision can never hand back a mapping for
    the wrong kernel. *)

type t

(** Canonicalize; cheap enough for the request fast path: the
    refinement runs over flat per-node adjacency arrays, and the edges
    are packed into ints once, for {!identical}. *)
val of_dfg : Ocgra_dfg.Dfg.t -> t

val dfg : t -> Ocgra_dfg.Dfg.t

(** Permutation-invariant 62-bit fingerprint.  Isomorphic DFGs agree;
    unequal fingerprints prove non-isomorphism. *)
val fingerprint : t -> int

(** [identical a b]: the DFGs have equal node labels, node by node, and
    equal edge multisets; edge insertion order does not matter.  Edges
    in the same order compare without a sort; otherwise each side sorts
    its packed edges once and keeps them. *)
val identical : t -> t -> bool

(** [witness a b] is [Some w] iff the underlying DFGs are isomorphic as
    labelled multigraphs, with [w.(i)] the node of [b] matching node [i]
    of [a].  {!identical} DFGs short-circuit to the identity witness
    without a search; only a search builds the [Digraph]s it reads.
    The sorted edges and the [Digraph] are built on first use, so do
    not compare one [t] from two domains at once.  Deterministic. *)
val witness : t -> t -> int array option

(** [permute d p] renumbers: node [i] of [d] becomes node [p.(i)] of the
    result, edges follow.  [witness (of_dfg d) (of_dfg (permute d p))]
    is total by construction — the bench stream generator and the
    property tests build their isomorphic duplicates with this. *)
val permute : Ocgra_dfg.Dfg.t -> int array -> Ocgra_dfg.Dfg.t
