(** Growable directed graph over dense integer node ids.

    The single graph representation behind DFGs, MRRGs and constraint
    graphs, so the algorithm modules apply uniformly.
    Nodes are [0..n-1]; parallel edges are allowed; each edge carries an
    integer weight (default 1). *)

type edge = { src : int; dst : int; weight : int }
type t

val create : ?capacity:int -> unit -> t
val node_count : t -> int

(** Appends a node and returns its id. *)
val add_node : t -> int

(** [add_nodes g k] appends [k] nodes, returning the first new id. *)
val add_nodes : t -> int -> int

(** Raises [Invalid_argument] when an endpoint is out of range. *)
val add_edge : ?weight:int -> t -> int -> int -> unit

val succ_edges : t -> int -> edge list
val pred_edges : t -> int -> edge list
val succ : t -> int -> int list
val pred : t -> int -> int list
val out_degree : t -> int -> int
val in_degree : t -> int -> int
val edge_count : t -> int
