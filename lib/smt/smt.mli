(** Lazy SMT for integer difference logic on the CDCL solver: atoms
    [x - y <= c] are boolean proxies; each propositionally satisfying
    assignment is checked with Bellman-Ford, and a negative cycle adds
    a blocking clause over exactly the atoms on the cycle. *)

type t
type ivar = int

type result = Sat_ | Unsat_ | Unknown_

val create : unit -> t

(** Fresh integer (theory) variable. *)
val new_int : t -> ivar

(** Fresh propositional literal. *)
val new_bool : t -> Ocgra_sat.Solver.lit

(** Interned literal for the atom [x - y <= c]. *)
val atom_le : t -> ivar -> ivar -> int -> Ocgra_sat.Solver.lit

(** Literal for [x - y >= c]. *)
val atom_ge : t -> ivar -> ivar -> int -> Ocgra_sat.Solver.lit

(** [Unknown_] when the round or conflict budget runs out, or when
    [should_stop] (also threaded into the inner SAT search) fires. *)
val solve :
  ?max_rounds:int -> ?max_conflicts:int -> ?should_stop:(unit -> bool) -> t -> result

(** Integer model (shifted so the minimum is 0); only after [Sat_].
    Read a literal's model value with {!Ocgra_sat.Solver.value} on
    {!sat_solver}. *)
val int_value : t -> ivar -> int

(** Lazy refinement rounds used by the last solve. *)
val rounds : t -> int

(** The underlying SAT instance, for adding structure directly. *)
val sat_solver : t -> Ocgra_sat.Solver.t
