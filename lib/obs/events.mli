(** Bounded, mutex-free structured event log: typed records with a
    category, a name, and integer/string arguments, sequence-stamped
    from one atomic counter and published by compare-and-set.

    Determinism contract: [events] returns sequence order, which for
    a single emitting domain is program order.  Parallel sections
    that need byte-identical logs across worker counts must emit
    post-hoc from a deterministically-ordered result array, or into
    forked sinks absorbed in a fixed order ({!absorb} re-sequences).
    Events never carry wall-clock payloads — durations belong in the
    trace or in {!Hist}. *)

type value = Int of int | Str of string

type event = {
  seq : int;
  cat : string;
  name : string;
  args : (string * value) list;
}

type t

val off : t
(** The no-op sink: every operation is a single branch. *)

val create : ?cap:int -> unit -> t
(** Live sink holding at most [cap] (default 65 536) events;
    further emissions only bump {!dropped}. *)

val enabled : t -> bool

val emit : t -> ?cat:string -> string -> (string * value) list -> unit

val events : t -> event list
(** All retained events in sequence order. *)

val count : t -> int
(** Events retained (emissions capped at the bound). *)

val dropped : t -> int
(** Emissions discarded past the bound. *)

val absorb : into:t -> t -> unit
(** Append [src]'s events onto [into] with fresh sequence numbers,
    preserving their relative order. *)
