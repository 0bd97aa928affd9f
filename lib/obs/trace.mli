(** Lock-free recorder of closed timed regions (spans) on the
    monotonic clock shared with [Deadline].  Open spans are plain
    stack state of the recording domain; completed spans are published
    with a compare-and-set push onto one shared list, so workers under
    [Pool.run] / [Harness.race] trace without locks.  Nesting is by
    time containment per domain lane, which is exactly how the Chrome
    trace-event viewer renders complete events. *)

type span = {
  name : string;
  cat : string;
  ts : float;  (** start, absolute seconds on the monotonic clock *)
  dur : float;  (** seconds *)
  tid : int;  (** id of the domain that recorded it *)
  args : (string * string) list;
}

type t

val off : t
(** The no-op sink: [enabled off = false]; {!span} costs one branch. *)

val create : unit -> t
(** A live trace whose epoch (ts origin for export) is [now ()]. *)

val enabled : t -> bool

val now : unit -> float
(** Seconds on CLOCK_MONOTONIC (arbitrary epoch; only differences are
    meaningful) — the tree's one clock: [Deadline.now] is an alias and
    the supervision layer reads it directly. *)

val span : t -> ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] and records a closed span around it
    (also when [f] raises — the exception is re-raised). *)

val spans : t -> span list
(** Stable view: sorted by start time, longest-first on ties (so a
    parent precedes the children it contains), then name and lane. *)

val epoch : t -> float
