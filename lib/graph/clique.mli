(** Maximum clique (Bron-Kerbosch with pivoting) over an undirected
    graph; compatibility-graph binding runs on this. *)

type t

val create : int -> t

(** Undirected edge; raises on self loops. *)
val add_edge : t -> int -> int -> unit

(** [maximum t] returns (clique members sorted, proven); [proven] is
    false when the [max_steps] budget stopped the exact search, in
    which case the clique is the best found so far. *)
val maximum : ?max_steps:int -> t -> int list * bool
