(** Named atomic integer counters and gauges.  Cells are registered
    on first use (compare-and-set on the registry head, so concurrent
    first uses of one name still share a single cell); after that a
    counter bump is one [Atomic.fetch_and_add].  Values are integers
    only: summed in any order they are deterministic, so a dump at
    [--jobs 1] with a fixed seed is byte-identical across runs. *)

type t

val off : t
(** The no-op sink: every operation is a single branch. *)

val create : unit -> t
val enabled : t -> bool

val add : t -> string -> int -> unit
val incr : t -> string -> unit

val set_max : t -> string -> int -> unit
(** Gauge: retains the maximum ever set. *)

val get : t -> string -> int
(** 0 for a name never touched. *)

val dump : t -> (string * int) list
(** Snapshot, sorted by name — the deterministic export order. *)

val merge : into:t -> t -> unit
(** [merge ~into src] folds every cell of [src] into [into] — how a
    per-tier fork's tallies are folded back after a race.  Cells are
    tagged by the operation that created them: counters sum and
    [set_max] gauges fold by maximum (never summed — a gauge folded
    with [+] double-counts). *)
