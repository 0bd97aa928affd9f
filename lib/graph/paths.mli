(** Hop distances by breadth-first search. *)

(** Distance marker for unconnected pairs. *)
val unreachable : int

(** BFS from every node: the hop table used by the spatial mappers. *)
val all_pairs_hops : Digraph.t -> int array array
