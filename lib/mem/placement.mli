(** Array-to-bank data placement ([67], [68]): avoid same-slot
    same-bank pairs.  Greedy by access pressure, or exact by a small
    assignment ILP. *)

type array_info = {
  name : string;
  size : int;
  slots : int list;  (** modulo slots in which the array is accessed *)
}

(** (array, bank) assignment. *)
val greedy : banks:int -> array_info list -> (string * int) list

(** Exact assignment minimising the weighted conflicts; [None] when
    the solver budget runs out. *)
val ilp : banks:int -> array_info list -> (string * int) list option

(** Weighted same-bank conflict pairs of an assignment. *)
val cost : array_info list -> (string * int) list -> int
