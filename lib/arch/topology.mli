(** Interconnect topologies between cells: 4-neighbour mesh, torus,
    mesh-plus-diagonals, one-hop mesh, full crossbar. *)

type t = Mesh | Torus | Diagonal | One_hop | Full

val to_string : t -> string

(** Raises [Invalid_argument] on unknown names. *)
val of_string : string -> t

(** Cells reachable in one cycle from [pe] (excluding [pe] itself);
    indices are row-major [r * cols + c]. All topologies are
    symmetric. *)
val neighbours : t -> rows:int -> cols:int -> int -> int list

(** [neighbours] of the cell at ([row], [col]), without the division
    that turns a PE index into its coordinates. *)
val neighbours_at : t -> rows:int -> cols:int -> row:int -> col:int -> int list

val all : t list
