(** Hopcroft–Karp maximum bipartite matching: the largest set of
    disjoint compatible (left, right) pairs, found in O(E √V). *)

type t

val create : n_left:int -> n_right:int -> t

(** Declare a compatible (left, right) pair. *)
val add_pair : t -> int -> int -> unit

(** Returns (size, match_left, match_right); -1 marks unmatched. *)
val solve : t -> int * int array * int array

val max_matching_size : t -> int
