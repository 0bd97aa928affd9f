(** Affine loop-nest transformation before pipelining ([45]): pick a
    unimodular transformation of a 2-deep nest so the innermost loop
    carries as little recurrence as possible.  Only inner-carried
    dependences (transformed to (0, d>0)) bound the inner II. *)

type dep = { d_outer : int; d_inner : int; latency : int }

type transform =
  | Identity
  | Interchange
  | Skew of int  (** (i, j) -> (i, j + f*i) *)
  | Interchange_skew of int

val transform_to_string : transform -> string

(** Every transformed vector lexicographically non-negative? *)
val legal : transform -> dep list -> bool

(** Recurrence bound on the inner II after the transformation. *)
val inner_rec_mii : transform -> dep list -> int

(** Best legal transformation: (inner RecMII, transform); [None] when
    nothing is legal. *)
val best : dep list -> (int * transform) option

(** Every candidate with its legality and bound. *)
val report : dep list -> (transform * bool * int option) list
