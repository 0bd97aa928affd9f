(** Cardinality encodings over solver literals: the SAT mapper's
    exactly-one (each op gets one slot) and at-most-one (each slot runs
    at most one op) constraints.

    Every helper accepts an activation [?guard] literal: each emitted
    clause (auxiliary-variable clauses included) is weakened to
    [(not guard) \/ clause], so the constraint group only binds while
    [guard] is assumed true — the retractable per-II clause groups of
    the incremental II sweep. *)

(** Pairwise for up to 6 literals, Sinz's sequential encoding (linear,
    auxiliary variables) above. *)
val at_most_one : ?guard:Solver.lit -> Solver.t -> Solver.lit list -> unit

val exactly_one : ?guard:Solver.lit -> Solver.t -> Solver.lit list -> unit

(** [implies s a bs] adds a -> (b1 or b2 or ...). *)
val implies : ?guard:Solver.lit -> Solver.t -> Solver.lit -> Solver.lit list -> unit
