(** Minimal JSON (RFC 8259) reader and printer — the one JSON codec of
    the tree: wire requests and responses, event logs, trace and
    metrics exports, checkpoint journals and [BENCH_*.json] snapshots
    all go through it.  Object member order is preserved both ways;
    numbers are floats. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Whole-input parse; the error names the byte offset.  A [\u] escape
    decodes to UTF-8; a high surrogate escape directly followed by a
    low one decodes to the one 4-byte scalar they encode, and a
    surrogate without its partner passes through as its 3-byte form.
    Every [Num] equals [float_of_string] of its text, bit for bit.  The
    reader allocates the returned value and, for a string holding a
    backslash, one [Buffer]; nothing per character. *)

val render : t -> string
(** The printer, with one fixed layout: compact (no whitespace), object
    members in the order given.  Strings escape the double quote, the
    backslash and control characters below 0x20; other bytes pass
    through.  A [Num] that is
    an integer with magnitude at most 2^53 prints as a decimal integer,
    any other finite [Num] with [%.15g] (or [%.17g] when that does not
    read back exactly), and a non-finite [Num] as [null].  So
    [parse (render v) = Ok v] for every [v] without non-finite
    numbers. *)

val int : int -> t
(** [Num] of an integer; exact up to 2^53. *)

val member : string -> t -> t option
val to_string : t -> string option

val to_int : t -> int option
(** [Num] values that are exact integers only; [None] otherwise. *)

val to_bool : t -> bool option

val to_list : t -> t list option
(** [Arr] elements; [None] for any other kind. *)
