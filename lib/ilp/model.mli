(** Modeling layer over the LP/MILP solvers: binary variables and
    sparse linear terms; the ILP mappers write their formulations
    against this. *)

type var = int
type t

val create : ?maximize:bool -> unit -> t

(** Fresh integer variable in \[0, 1\] (its bound is a row). *)
val binary : t -> var

(** [add_constraint t terms rel rhs] posts [sum c_i x_i rel rhs]. *)
val add_constraint : t -> (float * var) list -> Lp.relation -> float -> unit

val set_objective : t -> (float * var) list -> unit

type outcome =
  | Optimal of float
  | Feasible of float
  | Infeasible
  | Unbounded
  | Limit

(** Returns the outcome, the rounded integer solution when one exists,
    and the branch & bound statistics. *)
val solve :
  ?max_nodes:int ->
  ?should_stop:(unit -> bool) ->
  t ->
  outcome * int array option * Ilp.stats
