(** Finite-domain constraint solver: bitset domains over non-negative
    ints, a propagation queue with constraint-specific filtering, and
    depth-first search with smallest-domain-first ordering,
    backtracking by domain snapshots, and branch & bound minimization.
    The CP mapper's engine. *)

type var = int
type t

val create : unit -> t

(** Domain given as an explicit non-negative value list. *)
val new_var : ?name:string -> t -> int list -> var

val range_var : ?name:string -> t -> int -> int -> var
val domain : t -> var -> Ocgra_util.Bitset.t
val domain_size : t -> var -> int
val is_assigned : t -> var -> bool

(** Raises unless the domain is a singleton. *)
val value_exn : t -> var -> int

val min_value : t -> var -> int
val max_value : t -> var -> int

(** Constraints (posting enqueues initial propagation). *)

val not_equal : t -> var -> var -> unit

(** [eq_offset t x y c] posts x = y + c (arc-consistent). *)
val eq_offset : t -> var -> var -> int -> unit

(** Assigned-value elimination plus a union-of-domains pigeonhole
    argument. *)
val all_different : t -> var list -> unit

(** Bounds-consistent [sum c_i x_i <= k]. *)
val linear_le : t -> (int * var) list -> int -> unit

val linear_eq : t -> (int * var) list -> int -> unit

(** Positive table constraint with GAC support scanning. *)
val table : t -> var list -> int array list -> unit

(** First solution (values per variable), or [None]. [value_order]
    reorders each variable's candidate values; [should_stop] (polled at
    amortised checkpoints) aborts the search, e.g. on a wall-clock
    deadline. *)
val solve :
  ?max_failures:int ->
  ?should_stop:(unit -> bool) ->
  ?value_order:(var -> int list -> int list) ->
  t ->
  int array option

val count_solutions : ?limit:int -> t -> int

(** Iterated branch & bound: best (objective value, solution). *)
val minimize :
  ?max_failures:int -> ?should_stop:(unit -> bool) -> t -> var -> (int * int array) option

(** (failures, decisions, propagations) since creation — a
    propagation is one constraint popped off the queue and filtered. *)
val stats : t -> int * int * int

(** 64 cells: decisions by search depth (exact, tail bucket at 63) —
    the node-depth distribution the mapper wrappers flush into
    observability histograms. *)
val dist_depth : t -> int array
