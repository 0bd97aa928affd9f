(** Data-flow graph with loop-carried edge distances.

    An edge (src, dst, port, dist) says operand [port] of [dst] in
    iteration [i] is the value produced by [src] in iteration
    [i - dist]: [dist = 0] edges are intra-iteration dependences,
    [dist >= 1] edges are the loop recurrences that bound the
    initiation interval from below. *)

type node = { id : int; op : Op.t; name : string }
type edge = { src : int; dst : int; port : int; dist : int }
type t

val create : unit -> t
val node_count : t -> int
val edge_count : t -> int

(** Append an operation; returns its id. *)
val add : ?name:string -> t -> Op.t -> int

val node : t -> int -> node
val op : t -> int -> Op.t
val name : t -> int -> string

(** Raises [Invalid_argument] on bad endpoints or negative distance. *)
val add_edge : ?dist:int -> ?port:int -> t -> src:int -> dst:int -> unit

(** Edges in insertion order (the canonical edge indexing used by
    mappings). *)
val edges : t -> edge list

val iter_edges : (edge -> unit) -> t -> unit
val in_edges : t -> int -> edge list
val out_edges : t -> int -> edge list
val iter_nodes : (node -> unit) -> t -> unit
val fold_nodes : (node -> 'a -> 'a) -> t -> 'a -> 'a

(** Structural well-formedness: arity, one producer per port, port
    ranges. Empty list means valid. *)
val validate : t -> string list

(** Digraph over the dist-0 edges, weighted by producer latency. *)
val to_digraph : t -> Ocgra_graph.Digraph.t

(** No intra-iteration cycles? *)
val is_acyclic : t -> bool

(** Earliest start times under dist-0 dependences. *)
val asap : t -> int array

val critical_path : t -> int

(** Recurrence-constrained minimum initiation interval: the smallest II
    such that no dependence cycle has latency exceeding II times its
    distance. *)
val rec_mii : t -> int

val to_dot : ?name:string -> t -> string

(** Convenience builders. *)

val const : t -> int -> int
val input : t -> string -> int

(** [output t name v] wires [v] into a fresh Output node. *)
val output : t -> string -> int -> int

val binop : t -> Op.binop -> int -> int -> int
val unop : t -> Op.t -> int -> int
val select : t -> int -> int -> int -> int
val load : t -> string -> int -> int
val store : t -> string -> int -> int -> int
