(** Modulo resource occupancy: which FU slot (pe, cycle mod II) is used
    by what, and how many values live in each register file per slot
    (rotating-register accounting, which makes per-slot counting
    exact). *)

type user =
  | U_node of int
  | U_route of int
  | U_fault  (** DFG node id / edge index / permanently dead resource *)

type t = {
  ii : int;
  npe : int;
  fu : user option array;
  rf : int array;
}

(** With [?cgra], faulted FU slots are pre-claimed by [U_fault], so
    constructive mappers and routers avoid them natively. *)
val create : ?cgra:Ocgra_arch.Cgra.t -> npe:int -> ii:int -> unit -> t

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
val fu_user : t -> pe:int -> time:int -> user option
val fu_free : t -> pe:int -> time:int -> bool

(** Raises [Invalid_argument] when the slot is taken. *)
val claim_fu : t -> pe:int -> time:int -> user -> unit

val release_fu : t -> pe:int -> time:int -> unit
val rf_count : t -> pe:int -> time:int -> int

(** Cycles a hold occupies: (from_, until]. *)
val hold_span : from_:int -> until:int -> int list

val claim_hold : t -> pe:int -> from_:int -> until:int -> unit
val release_hold : t -> pe:int -> from_:int -> until:int -> unit
val release_route : t -> Mapping.route -> unit
