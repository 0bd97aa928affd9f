(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of the framework draws from this
    generator, so each experiment is reproducible from one integer
    seed.

    {b Thread-safety contract:} a [t] is a single mutable cell with no
    synchronisation — it is {e not} domain-safe.  Sharing one across
    domains is a data race, and even a benign-looking concurrent draw
    destroys reproducibility: the stream then depends on scheduler
    interleaving.  The discipline for parallel code (enforced by
    [Ocgra_par] consumers, see DESIGN.md):

    - never hand the same [t] to two domains;
    - {e before} the fan-out, pre-draw whatever the parallel section
      needs (per-trial seeds, drawn in task order);
    - the parent's stream advances the same number of steps regardless
      of worker count, so results stay bit-identical from 1 to N
      domains. *)

type t

(** [create seed] builds an independent generator. *)
val create : int -> t

(** Non-negative int from the top bits. *)
val bits : t -> int

(** [int t bound] is uniform in \[0, bound). Raises [Invalid_argument]
    on non-positive bounds. *)
val int : t -> int -> int

(** {b One draw per call.}  [bits], [int], [int_in], [float], [bool],
    [choose] and [choose_list] each advance the stream by exactly one
    splitmix64 output ([int] reduces it modulo the bound, with no
    rejection loop), and [shuffle_in_place] by one per swap.  So a
    caller that knows how many draws it will make can read them ahead
    and jump over them: *)

(** [int_ahead t j bound] is what [int t bound] would return after [j]
    other draws from [t], in O(1) and without drawing.
    [int_ahead t 0 bound = int t bound] on the same state. *)
val int_ahead : t -> int -> int -> int

(** [skip t n] advances [t] past [n] draws in O(1): afterwards [t]
    gives what it would have given after [n] calls of [int]. *)
val skip : t -> int -> unit

(** [int_in t lo hi] is uniform in \[lo, hi\] inclusive. *)
val int_in : t -> int -> int -> int

(** [float t bound] is uniform in \[0, bound). *)
val float : t -> float -> float

val bool : t -> bool

(** Uniform element of a non-empty array / list. *)
val choose : t -> 'a array -> 'a

val choose_list : t -> 'a list -> 'a

(** Fisher-Yates; [shuffle] copies, [shuffle_in_place] mutates. *)
val shuffle_in_place : t -> 'a array -> unit

val shuffle : t -> 'a array -> 'a array
