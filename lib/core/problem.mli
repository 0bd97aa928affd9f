(** The unified mapping problem formulation (Section II.C of the
    paper): bind in place and schedule in time the operations of the
    application on the CGRA while guaranteeing the dependencies. *)

type kind =
  | Spatial  (** II = 1 pipeline; every FU slot used at most once *)
  | Temporal of { max_ii : int; max_time : int }

type t = {
  dfg : Ocgra_dfg.Dfg.t;
  cgra : Ocgra_arch.Cgra.t;
  kind : kind;
  init : int -> int;  (** iteration -1 value of each node, for recurrences *)
}

val spatial : ?init:(int -> int) -> dfg:Ocgra_dfg.Dfg.t -> cgra:Ocgra_arch.Cgra.t -> unit -> t

(** [max_ii] defaults to the node count, [max_time] to a multiple of
    the critical path. *)
val temporal :
  ?init:(int -> int) ->
  ?max_ii:int ->
  ?max_time:int ->
  dfg:Ocgra_dfg.Dfg.t ->
  cgra:Ocgra_arch.Cgra.t ->
  unit ->
  t

val is_spatial : t -> bool
val max_ii : t -> int

(** Schedule horizon: bindings must place every op before this cycle. *)
val max_time : t -> int

(** Every op has at least one capable, non-faulted PE.  False means no
    mapper can succeed on this (possibly degraded) array. *)
val mappable : t -> bool

(** The arch + kind half of a mapping-cache key: fabric dimensions,
    topology, per-PE capability/RF/immediate description, and the
    problem kind with its II/time bounds.  The DFG and the fault mask
    are deliberately {e excluded} — the cache canonicalizes the DFG up
    to isomorphism and compares fault masks separately (a grown mask is
    a repair, not a miss).  Equal signatures accept the same mappings
    modulo those two. *)
val signature : t -> string

val describe : t -> string
