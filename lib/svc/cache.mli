(** The canonical-form mapping cache.

    One entry per (arch signature, kernel isomorphism class): a
    certified mapping in the coordinates of the {e representative} DFG
    (the one that paid for the cold map), plus the canonical fault mask
    it was certified under.  Lookup resolves the request's node
    bijection onto the representative, so a hit on an isomorphic
    renaming of a cached kernel can be permuted back and re-certified
    by the caller.

    Eviction is deterministic: size-bounded LRU ordered by a monotone
    request sequence number — never by wall clock — so a replayed
    request stream evicts exactly the same entries on every run and on
    every worker count. *)

type entry = {
  key : string;  (** [Problem.signature] of the representative *)
  mutable canon : Canon.t;  (** representative canonical form *)
  mutable mapping : Ocgra_core.Mapping.t;  (** in representative coordinates *)
  mutable mask : Ocgra_arch.Fault.t list;  (** canonical; certified under *)
  mutable last_used : int;  (** LRU clock value, not wall time *)
  mutable hits : int;
}

type t

(** Raises [Invalid_argument] on a capacity below 1. *)
val create : capacity:int -> t

val size : t -> int
val evictions : t -> int

(** [lookup t ~key c] finds the entry whose arch signature is [key] and
    whose representative is isomorphic to [c], returning it with the
    witness mapping representative nodes onto [c]'s nodes.  Bumps the
    LRU clock on a hit. *)
val lookup : t -> key:string -> Canon.t -> (entry * int array) option

(** Insert a freshly mapped kernel.  If an entry of the same
    isomorphism class already exists (stale mask, demoted mapping), it
    is updated in place and [c] becomes the new representative.
    Otherwise a fresh entry is added, evicting the least-recently-used
    entry when at capacity; the evicted entry is returned so the
    service can account for it. *)
val insert :
  t ->
  key:string ->
  Canon.t ->
  Ocgra_core.Mapping.t ->
  mask:Ocgra_arch.Fault.t list ->
  entry * entry option
