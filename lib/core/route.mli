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

(** The reusable buffers of every search over one array: cost and
    parent rows and price memos (grown on demand, never shrunk).  One
    owner runs its searches in it one at a
    time; a caller that keeps a {!field} while other searches run needs
    a workspace of its own. *)
type workspace

(** An empty workspace for searches over this array. *)
val workspace : Ocgra_arch.Cgra.t -> workspace

(** The DP cost field of one search, reusable for many goals (the
    edge-centric mapper reads it to choose consumer slots).  State
    [2 * pe] holds the value in [pe]'s output register, [2 * pe + 1]
    in its RF; layer [l] is cycle [avail + l].  A field is a view of
    its workspace's rows: it stays valid only until the next search
    on that workspace, and only layers [0..layers] are its own. *)
type field = private {
  cgra : Ocgra_arch.Cgra.t;
  avail : int;
  src_pe : int;
  layers : int;
  cost : int array;
      (** [layer * 2 * npe + state] -> cost; [max_int / 4] = unreached *)
  parent : int array;
      (** [layer * 2 * npe + state] -> the predecessor's index in the
          same layout; -1 at the source and at unreached states *)
}

(** Build the field from a value readable on [src_pe] at cycle [avail],
    out to [layers] further cycles, in the workspace's rows. *)
val explore :
  workspace -> ii:int -> cost_model -> src_pe:int -> avail:int -> layers:int -> field

(** Cheapest final state from which a consumer on [dst_pe] can read at
    layer [layer] (at most [field.layers]): the output register of the
    cheapest of [Cgra.feeders cgra dst_pe], ties to the lowest PE, else
    [dst_pe]'s own RF when it is strictly cheaper. *)
val goal_state : field -> dst_pe:int -> layer:int -> (int * int) option

(** Route a DFG edge between two bound endpoints ([lat] = producer
    latency; a distance-d edge is consumed d iterations later), as one
    search on the workspace. *)
val route_edge :
  workspace ->
  cost_model ->
  ii:int ->
  src:int * int ->
  dst:int * int ->
  lat:int ->
  dist:int ->
  (Mapping.route * int) option
