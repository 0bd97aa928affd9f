(** Subgraph isomorphism (VF2-style backtracking with degree pruning):
    an injective, edge-preserving embedding of the pattern into the
    host.  The graph-based binding mappers embed transformed DFGs into
    the time-extended CGRA with this.

    Every search runs over arrays built once per call: the binding
    order, degree arrays, a flat [nh × nh] host matrix (adjacency, or
    edge-weight bundles for {!find_iso}) and the verdicts of
    [compatible], asked once per (pattern node, host node) pair before
    the search starts.  [compatible] must therefore be pure: the same
    answer for the same pair, and no side effect that a caller counts
    on. *)

(** A budgeted embedding search ends in one of three ways; only
    [Absent] proves that no embedding exists. *)
type search =
  | Found of int array  (** [m.(v)] = the host node of pattern node [v] *)
  | Absent  (** the whole search tree was explored *)
  | Exhausted  (** the step budget ran out first: proves nothing *)

(** [search ~compatible pattern host] is the verdict and the number of
    search nodes visited ([max_steps] when [Exhausted]).  Default
    budget: 1 000 000 steps.  A host node must have at least the
    pattern node's in- and out-degree, parallel edges and self-loops
    counted; an edge between two distinct pattern nodes must map onto
    at least one host edge, and a pattern self-loop is not matched.
    Pattern nodes are bound most-linked-to-placed-nodes first, then by
    degree, then by id, and host nodes are tried in ascending order, so
    equal inputs give equal verdicts, counts and witnesses. *)
val search :
  ?max_steps:int -> compatible:(int -> int -> bool) -> Digraph.t -> Digraph.t -> search * int

(** [find ~compatible pattern host] returns the node mapping, or [None]
    when no embedding exists or the step budget ran out; {!search}
    tells the two apart. *)
val find :
  ?max_steps:int -> compatible:(int -> int -> bool) -> Digraph.t -> Digraph.t -> int array option

(** [find_iso ~compatible a b] returns a full {e isomorphism} witness
    [w] ([w.(i)] = the [b]-node matched to [a]-node [i]), or [None]
    when the graphs are not isomorphic or the step budget ran out.

    Unlike {!find}, this demands an exact structural bijection: equal
    node and edge counts, exactly matching in/out degrees per matched
    pair, and — the labelled-multigraph refinement the mapping cache
    relies on — for every matched node pair, a node paired with itself
    included, the {e weight multiset} of the parallel edges between them
    must coincide (edge weights are how callers encode edge labels such
    as (port, dist)).  Deterministic: it searches in {!search}'s order,
    so the same inputs always return the same witness. *)
val find_iso :
  ?max_steps:int -> compatible:(int -> int -> bool) -> Digraph.t -> Digraph.t -> int array option
