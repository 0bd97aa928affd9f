(** Deterministic log-bucketed integer histograms.

    The bucket scheme is fixed: bucket 0 for values <= 0, exact
    buckets for 1..7, then four sub-buckets per octave (relative
    error <= 25%, 248 buckets covering the full 63-bit range).
    Bucket cells are atomics, so recording commutes across domains:
    the dump depends only on the recorded multiset of values, never
    on arrival order or worker count.  Quantiles are derived from
    bucket counts by integer arithmetic and report the bucket's lower
    bound. *)

type t

val off : t
(** The no-op sink: every operation is a single branch. *)

val create : unit -> t
val enabled : t -> bool

val observe : t -> string -> int -> unit
(** Record one occurrence of a value into the named histogram. *)

val observe_n : t -> string -> int -> int -> unit
(** [observe_n t name v n] records [n] occurrences of [v] — how
    engine-native distribution arrays are flushed in one pass. *)

type summary = { count : int; sum : int; p50 : int; p90 : int; p99 : int; max : int }

val dump : t -> (string * summary) list
(** Non-empty histograms, sorted by name — the deterministic export
    order.  [max] is exact; the percentiles are bucket lower bounds. *)

val merge : into:t -> t -> unit
(** Bucket-wise addition (max of maxes); commutes and associates, so
    fork/absorb folds are order-insensitive. *)

val summary_kvs : t -> (string * int) list
(** Summaries flattened to [name.count/max/p50/p90/p99/sum] integer
    pairs for the metrics exporters. *)
