(** CDCL SAT solver in the MiniSat lineage: watched-literal
    propagation over flat per-literal watch stacks, with each clause's
    watched pair cached as one xor so a clause already satisfied by its
    other watch is skipped without being loaded (the search path is the
    same as a plain two-watched-literal solver's), VSIDS decision heap,
    first-UIP learning with backjumping, phase saving, Luby restarts —
    plus the incremental machinery the modulo-scheduling II sweep leans
    on: solving under assumption literals, LBD-guided learnt-DB
    reduction and root-level simplification,
    so one solver instance can be reused across many related queries
    while keeping its learnt clauses, variable activities and saved
    phases.

    Literals: variable [v] (1-based) gives literals [pos v] and
    [neg v]; [negate] flips polarity. *)

type t
type lit = int

val pos : int -> lit
val neg : int -> lit
val negate : lit -> lit
val var_of : lit -> int
val is_pos : lit -> bool

type result = Sat | Unsat | Unknown

(** [reduce_base] is the initial learnt-clause budget before the first
    [reduce_db] pass (default 4000; the budget then grows by half at
    every reduction).  Tests use a tiny budget to exercise reduction
    cheaply. *)
val create : ?reduce_base:int -> unit -> t

(** Fresh variable (1-based index). *)
val new_var : t -> int

(** Adding a clause backtracks to the root level first; empty or
    immediately-contradicted clauses make the instance permanently
    UNSAT. Repeated literals are dropped, a tautology or a clause
    already true at the root is ignored, literals false at the root
    are removed, and the clause is stored in ascending literal order.
    Raises [Invalid_argument] on unknown variables. *)
val add_clause : t -> lit list -> unit

(** [solve ?max_conflicts ?should_stop ?assumptions t]: [Unknown] when
    the conflict budget runs out or [should_stop] (polled at amortised
    checkpoints, e.g. a wall-clock deadline) returns true.

    Assumptions are established one per decision level before any free
    decision (the decision level is the assumption cursor, so the
    prefix costs O(1) per decision).  [Unsat] under assumptions leaves
    the instance usable unless the clauses alone are unsatisfiable,
    which {!is_ok} tells apart; no failed-assumption core is derived.
    After [Sat], read the model with {!value}. *)
val solve :
  ?max_conflicts:int -> ?should_stop:(unit -> bool) -> ?assumptions:lit list -> t -> result

(** False once the instance is unsatisfiable outright (empty clause,
    root-level conflict) — as opposed to UNSAT under assumptions,
    which keeps the instance usable. *)
val is_ok : t -> bool

(** Model value of a literal: true when the last [Sat] answer made it
    true.  Meaningful only after [Sat] and before the next
    [add_clause] or [solve]; raises [Invalid_argument] on an unknown
    variable. *)
val value : t -> lit -> bool

(** Work and convergence tallies since creation.  The counters are
    cumulative; [learnts] is the learnt clauses stored now (after any
    reduction).  The distributions are tallied once per conflict as
    64-cell count arrays (the solver carries no observability
    dependency; mapper wrappers flush deltas into histograms): [lbd]
    is indexed by the learnt clause's exact LBD (tail bucket at 63),
    [trail_depth] and [props_per_decision] by [floor(log2 v)] of the
    trail depth at conflict and of propagations-per-decision since the
    previous conflict. *)
type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;  (** Luby restarts taken *)
  reduces : int;  (** learnt-DB reduction passes run *)
  learnts : int;
  lbd : int array;
  trail_depth : int array;
  props_per_decision : int array;
}

(** A snapshot: the arrays are copies, so a later solve does not move
    them. *)
val stats : t -> stats

(** Internal-consistency audit for tests: reason indices must point at
    live clauses asserting their variable; every stored clause must sit
    exactly once on the watch stack of each of its first two literals
    and on no other stack, with its cached watched pair up to date.
    Returns human-readable violations; [[]] means healthy. *)
val self_check : t -> string list
