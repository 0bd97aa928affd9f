(** Fixed-capacity bitset over ints backed by an int array.

    The CP engine stores finite domains in these; graph algorithms use
    them as dense sets. All indices must be in \[0, capacity);
    violations raise [Invalid_argument]. *)

type t

val create : int -> t
val capacity : t -> int
val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool

(** Set every bit in \[0, capacity). *)
val fill : t -> unit

val copy : t -> t

val cardinal : t -> int
val is_empty : t -> bool

(** In-place set operations into [dst]; capacities must match. *)
val inter_into : src:t -> dst:t -> unit

val diff_into : src:t -> dst:t -> unit

(** Iterate members in increasing order. *)
val iter : (int -> unit) -> t -> unit

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val elements : t -> int list
val min_elt : t -> int option
val of_list : int -> int list -> t
