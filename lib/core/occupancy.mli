(** Modulo resource occupancy, the one ledger of the modulo routing
    resource graph: which FU slot (pe, cycle mod II) is used by what,
    and how many values live in each register file per slot
    (rotating-register accounting, which makes per-slot counting
    exact).  Constructive mappers claim in it, {!Pathfinder} negotiates
    against it, and {!Repair} freezes a mapping's survivors in it. *)

type user =
  | U_node of int
  | U_route of int
  | U_fault  (** DFG node id / edge index / permanently dead resource *)

type t = {
  ii : int;
  npe : int;
  fu : user option array;  (** {!cell} -> user *)
  rf : int array;  (** {!cell} -> live value count *)
}

(** With [?cgra], faulted FU slots (every cell {!Mrrg.live} refuses:
    each slot of a downed PE, and each dead slot below [ii]) are
    pre-claimed by [U_fault], so constructive mappers and routers avoid
    them natively. *)
val create : ?cgra:Ocgra_arch.Cgra.t -> npe:int -> ii:int -> unit -> t

(** The ledger of a bare binding at [ii]: dead silicon plus a [U_node]
    claim per node.  [None] when a node's PE is out of range, downed or
    incapable of its op, its cycle is negative, or its slot is dead or
    taken by another node. *)
val of_binding : Problem.t -> ii:int -> (int * int) array -> t option

(** Freeze the surviving pieces of an existing mapping: claim every
    binding except those with [skip_nodes id] and every route with
    [keep_edge idx] (both default to keeping everything).  Raises
    [Invalid_argument] if the kept pieces overlap. *)
val claim_frozen :
  t ->
  ?skip_nodes:(int -> bool) ->
  ?keep_edge:(int -> bool) ->
  binding:(int * int) array ->
  routes:Mapping.route array ->
  unit ->
  unit

(** Index of (pe, time mod ii) in [fu] and [rf]: [pe * ii + slot]. *)
val cell : t -> pe:int -> time:int -> int

val fu_user : t -> pe:int -> time:int -> user option
val fu_free : t -> pe:int -> time:int -> bool

(** Raises [Invalid_argument] when the slot is taken. *)
val claim_fu : t -> pe:int -> time:int -> user -> unit

val release_fu : t -> pe:int -> time:int -> unit
val rf_count : t -> pe:int -> time:int -> int

(** A hold occupies one entry in every cycle of (from_, until]. *)
val claim_hold : t -> pe:int -> from_:int -> until:int -> unit

val release_hold : t -> pe:int -> from_:int -> until:int -> unit

(** [try_claim_route cgra t e route] claims [route]'s hops as
    [U_route e] and its holds cycle by cycle, each only while the slot
    is free and the register file is below
    [Cgra.effective_rf_size cgra pe].  On the first refusal it releases
    what it claimed and returns false, leaving [t] as it was. *)
val try_claim_route : Ocgra_arch.Cgra.t -> t -> int -> Mapping.route -> bool

val release_route : t -> Mapping.route -> unit
