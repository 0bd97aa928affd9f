(** Subgraph isomorphism (VF2-style backtracking with degree pruning):
    an injective, edge-preserving embedding of the pattern into the
    host.  The graph-based binding mappers embed transformed DFGs into
    the time-extended CGRA with this. *)

(** A budgeted embedding search ends in one of three ways; only
    [Absent] proves that no embedding exists. *)
type search =
  | Found of int array  (** [m.(v)] = the host node of pattern node [v] *)
  | Absent  (** the whole search tree was explored *)
  | Exhausted  (** the step budget ran out first: proves nothing *)

(** [search ~compatible pattern host] is the verdict and the number of
    search nodes visited ([max_steps] when [Exhausted]).  Default
    budget: 1 000 000 steps. *)
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
    relies on — for every matched node pair the {e weight multiset} of
    the parallel edges between them must coincide (edge weights are how
    callers encode edge labels such as (port, dist)).  Deterministic:
    the search order is a pure function of the two graphs, so the same
    inputs always return the same witness. *)
val find_iso :
  ?max_steps:int -> compatible:(int -> int -> bool) -> Digraph.t -> Digraph.t -> int array option
