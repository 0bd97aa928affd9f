(** Router over the time-expanded modulo routing resource graph (MRRG):
    a layered DP over (PE, in-RF?) states, one cycle per layer, with
    caller-supplied resource pricing.

    Setting [ii = 1] drops structurally illegal transitions (self-hops
    and RF holds both need two FU uses of one PE, impossible at II = 1),
    making II = 1 routing exact-length disjoint paths — the systolic
    regime. *)

type cost_model = {
  fu_cost : int -> int -> int option;
      (** [fu_cost pe time]: [None] forbids the FU slot, [Some c]
          prices a routing hop on it *)
  rf_cost : int -> int -> int option;  (** same for holding in the RF *)
}

(** Strict pricing against an occupancy: occupied resources forbidden. *)
val strict : Ocgra_arch.Cgra.t -> Occupancy.t -> cost_model

(** The DP cost field of one search, reusable for many goals (the
    edge-centric mapper reads it to choose consumer slots).  State
    [2 * pe] holds the value in [pe]'s output register, [2 * pe + 1]
    in its RF; layer [l] is cycle [avail + l]. *)
type field = private {
  cgra : Ocgra_arch.Cgra.t;
  avail : int;
  src_pe : int;
  layers : int;
  cost : int array array;  (** layer -> state -> cost; [max_int / 4] = unreached *)
  parent : int array array;
      (** layer -> state -> the predecessor as [layer * 2 * npe + state];
          -1 at the source and at unreached states *)
}

(** Build the field from a value readable on [src_pe] at cycle [avail],
    out to [layers] further cycles. *)
val explore : ?ii:int -> Ocgra_arch.Cgra.t -> cost_model -> src_pe:int -> avail:int -> layers:int -> field

(** Cheapest final state from which a consumer on [dst_pe] can read at
    layer [layer] (a neighbour's output register or its own RF). *)
val goal_state : field -> dst_pe:int -> layer:int -> (int * int) option

(** Route a DFG edge between two bound endpoints ([lat] = producer
    latency; a distance-d edge is consumed d iterations later). *)
val route_edge :
  Ocgra_arch.Cgra.t ->
  cost_model ->
  ii:int ->
  src:int * int ->
  dst:int * int ->
  lat:int ->
  dist:int ->
  (Mapping.route * int) option
