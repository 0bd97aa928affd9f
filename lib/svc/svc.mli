(** Mapping as a service: a long-lived batch daemon over the mapping
    stack.

    The service accepts batches of requests (kernel + array + fault
    mask + problem kind), canonicalizes each DFG (see {!Canon}), and
    serves each request by the cheapest sufficient path:

    - {b hit}: the isomorphism class is cached and the cached mask
      covers the request — permute the cached mapping onto the request
      DFG, re-certify with [Check.validate], answer in microseconds;
    - {b repair hit}: the class is cached but the request mask has
      {e grown} (cached mask ⊂ request mask) — run the certified
      {!Ocgra_core.Repair} ladder from the cached mapping instead of
      mapping cold, and fold the repaired mapping back into the entry;
    - {b miss}: everything else — the request drains through a
      [Supervise]-wrapped pool of [Harness.run] cold maps, and the
      result is inserted (replacing a same-class entry if the masks
      were incomparable).

    Every returned mapping — hit, repair or miss — has passed
    [Check.validate] against the {e request's} problem; a permuted hit
    the validator rejects is demoted to a miss, never returned.

    {b Determinism contract}: with deterministic mapper chains,
    responses, cache contents, counters and the event log are pure
    functions of (config, request stream, batch boundaries) — the
    worker count never shows through.  Classification is sequential in
    request order; misses run one sequential harness each (one try
    per tier) and a private [Ctx.fork] absorbed in miss order; events are
    emitted post-hoc in request order and carry no wall-clock
    payloads.  Latencies exist only as histogram observations and
    response fields, never in events. *)

type config = {
  capacity : int;  (** cache entries, LRU beyond this *)
  chain : Ocgra_core.Mapper.t list;  (** cold-map portfolio; non-empty *)
  workers : int;  (** pool width for draining a batch's misses *)
  deadline_s : float option;  (** per-miss / per-repair budget *)
  seed : int;
  retries : int;
      (** extra supervised tries per raising miss task after the first,
          as in {!Ocgra_par.Supervise.run}; >= 0 *)
}

(** capacity 256, workers 1, no deadline, seed 42,
    [Supervise.default_retries] (1) retry — and an empty chain the
    caller must replace. *)
val default_config : config

type request = {
  id : string;
  dfg : Ocgra_dfg.Dfg.t;
  cgra : Ocgra_arch.Cgra.t;  (** carries the fault mask *)
  spatial : bool;
  max_ii : int option;
}

type served =
  | Hit  (** exact duplicate (identity witness) *)
  | Iso_hit  (** isomorphic renaming, permuted back *)
  | Repair_hit of Ocgra_core.Mapper.rung  (** mask grew; ladder rung that certified *)
  | Miss  (** cold-mapped this request *)
  | Rejected  (** no mapping: invalid/unmappable request or all engines failed *)

val served_to_string : served -> string

type response = {
  id : string;
  served : served;
  mapping : Ocgra_core.Mapping.t option;  (** certified on the request DFG *)
  ii : int option;
  elapsed_s : float;  (** service time of this request inside the batch *)
  note : string;
}

(** Derived from the service's [svc.*] counters, which are also folded
    into the caller's [obs] metrics after every batch: [svc.requests],
    [svc.hits], [svc.iso_hits], [svc.repair_hits], [svc.misses],
    [svc.rejections], [svc.coalesced], [svc.demotions] (plus
    [svc.batches]).  [entries] and [evictions] come from the cache. *)
type stats = {
  requests : int;
  hits : int;  (** exact duplicates *)
  iso_hits : int;
  repair_hits : int;
  misses : int;
  rejections : int;
  coalesced : int;  (** in-batch duplicates folded onto one cold map *)
  demotions : int;  (** cached mapping failed re-certification -> miss *)
  entries : int;
  evictions : int;
}

type t

(** Raises [Invalid_argument] on an empty chain, capacity < 1 or
    negative retries. *)
val create : ?obs:Ocgra_obs.Ctx.t -> config -> t

(** Serve one batch; responses in request order.  Not thread-safe —
    one submitter at a time (the daemon loop is that submitter). *)
val submit_batch : t -> request list -> response list

val stats : t -> stats
