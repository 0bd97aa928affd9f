(** A CGRA instance: a rows x cols array of PEs joined by a topology.
    Capability queries, neighbour sets and hop tables are the whole
    interface the mappers use, so any array describable here is
    mappable by all of them. *)

(** Private so that the stored adjacency always matches the fields it
    is derived from: build arrays with {!make} (or the standard
    instances) and change faults with {!with_faults}. *)
type t = private {
  rows : int;
  cols : int;
  topology : Topology.t;
  pes : Pe.t array;  (** row-major, length rows * cols *)
  name : string;
  faults : Fault.t list;  (** resources out of service; [[]] = healthy *)
  reach : int list array;
      (** PE -> {!reachable_in_one}, built once per array; the tail of a
          PE's list is its {!neighbours} *)
  feeders : int list array;  (** PE -> {!feeders}, built with [reach] *)
}

(** A healthy array of [rows * cols] PEs, row-major. *)
val make : ?name:string -> rows:int -> cols:int -> topology:Topology.t -> Pe.t array -> t

val pe_count : t -> int
val pe : t -> int -> Pe.t
val coords : t -> int -> int * int

(** {2 Faults}

    [neighbours], [reachable_in_one], [supports] and [capable_pes] are
    all fault-masked: a downed PE supports nothing and has no links, a
    downed link disappears from the adjacency.  Mappers that only go
    through these queries avoid faulted resources with no changes. *)

(** The fault set in its {!Fault.canonical} form: {!make} starts from
    [[]] and {!with_faults} canonicalises, so callers need not. *)
val faults : t -> Fault.t list

(** Same array with a (deduplicated) replacement fault set. *)
val with_faults : t -> Fault.t list -> t

(** False when the cell itself is [Pe_down]. *)
val pe_ok : t -> int -> bool

(** False when the directed link i -> j is [Link_down] (endpoint health
    is not considered — combine with [pe_ok]). *)
val link_ok : t -> int -> int -> bool

(** False when config slot [time mod ii] of [pe] is [Fu_slot_dead]. *)
val slot_ok : t -> pe:int -> ii:int -> time:int -> bool

(** Dead config-memory slot indices of [pe]. *)
val dead_slots : t -> pe:int -> int list

(** Register-file capacity after [Rf_reduced] faults (0 for a downed
    PE), clamped at 0. *)
val effective_rf_size : t -> int -> int

(** Physical topology adjacency, ignoring faults. *)
val raw_neighbours : t -> int -> int list

(** Draw up to [n] distinct random faults (fewer only if the array runs
    out of distinct resources); deterministic in [seed]. *)
val inject_faults : t -> seed:int -> n:int -> Fault.t list

(** Seeded Monte-Carlo transient bombardment of this array over cycles
    [0, horizon) at per-(PE, cycle) event probability [rate];
    deterministic in [seed].  See {!Fault.monte_carlo}. *)
val inject_transients :
  t -> seed:int -> horizon:int -> rate:float -> Fault.transient list

(** Fault-masked adjacency, stored: no list is built per call. *)
val neighbours : t -> int -> int list

(** Including staying put (empty for a downed PE); stored too. *)
val reachable_in_one : t -> int -> int list

(** The PEs whose output register a consumer on [d] reads, stored: [d],
    then each [q] of [raw_neighbours t d] with [d] in [neighbours t q],
    in that order.  Under a one-way [Link_down] this
    differs from {!reachable_in_one}[ d]; on a fault-free array it is
    that very list. *)
val feeders : t -> int -> int list

val supports : t -> int -> Ocgra_dfg.Op.t -> bool
val capable_pes : t -> Ocgra_dfg.Op.t -> int list
val connectivity_graph : t -> Ocgra_graph.Digraph.t

(** {!hop_table} entry for a pair with no path. *)
val unreachable : int

(** [.(i).(j)] = minimum cycles to move a value from PE i to PE j over
    the fault-masked {!neighbours}: 0 on the diagonal, {!unreachable}
    where no path exists.  Asymmetric under one-way link faults. *)
val hop_table : t -> int array array

(** The grid's dihedral maps that are automorphisms of the whole
    fault-masked, capability-labelled array, as permutations [s] with
    [s.(i)] the image of PE [i]: identity first, no repeats, at most 8
    on a square array and 4 on a rectangular one.  A map is kept only
    when it preserves the directed {!neighbours} relation and each
    PE's [Pe.t], {!pe_ok}, {!dead_slots} set and {!effective_rf_size}
    (hence {!slot_ok} at every II).  The result is a group. *)
val automorphisms : t -> int array list

(** Homogeneous full-featured mesh: the "simple CGRA" of Fig. 2. *)
val uniform : ?topology:Topology.t -> ?rf_size:int -> rows:int -> cols:int -> unit -> t

(** ADRES-flavoured heterogeneity: memory and I/O in column 0,
    multipliers on even cells. *)
val adres_like : ?topology:Topology.t -> ?rf_size:int -> rows:int -> cols:int -> unit -> t

(** The CPU-like end of the Fig. 1 spectrum: one full PE. *)
val single_pe : ?rf_size:int -> unit -> t

val describe : t -> string
