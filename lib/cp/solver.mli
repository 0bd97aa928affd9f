(** Finite-domain constraint solver: bitset domains over non-negative
    ints, a propagation queue with constraint-specific filtering, and
    depth-first search with smallest-domain-first ordering and
    backtracking by domain snapshots.  The CP mapper's engine. *)

type var = int
type t

val create : unit -> t

(** Domain given as an explicit non-negative value list. *)
val new_var : t -> int list -> var

val range_var : t -> int -> int -> var

(** Constraints (posting enqueues initial propagation). *)

(** Assigned-value elimination plus a union-of-domains pigeonhole
    argument. *)
val all_different : t -> var list -> unit

(** Bounds-consistent [sum c_i x_i <= k]. *)
val linear_le : t -> (int * var) list -> int -> unit

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

(** (failures, decisions, propagations) since creation — a
    propagation is one constraint popped off the queue and filtered. *)
val stats : t -> int * int * int

(** 64 cells: decisions by search depth (exact, tail bucket at 63) —
    the node-depth distribution the mapper wrappers flush into
    observability histograms. *)
val dist_depth : t -> int array
