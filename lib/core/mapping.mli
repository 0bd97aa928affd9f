(** A mapping: the spatial and temporal coordinates of every node and
    arc of the DFG.

    Timing model (shared by router, checker and simulator): an op
    issued at (p, t) reads operands during cycle t — from a
    neighbour's or its own output register written at end of t-1, from
    its own RF, or from the immediate field — and its result is
    readable from t + latency. *)

type step =
  | Hop of { pe : int; time : int }
      (** a Route op on [pe] at absolute cycle [time]: reads the value
          from the current holder and re-emits it (occupies an FU
          slot) *)
  | Hold of { pe : int; from_ : int; until : int }
      (** an RF entry on [pe] keeps the value: written at the end of
          cycle [from_], read during cycle [until] (occupies one RF
          entry per covered cycle, counted per modulo slot) *)

type route = step list

type t = {
  ii : int;  (** 1 for spatial mappings *)
  binding : (int * int) array;  (** node id -> (pe, cycle) *)
  routes : route array;  (** one per DFG edge, in [Dfg.edges] order *)
}

(** Latest scheduled cycle + 1. *)
val schedule_length : t -> int

val total_route_hops : t -> int
val total_hold_cycles : t -> int

(** The modulo-schedule grid of Fig. 3: rows = slots 0..II-1, columns =
    PEs, cells = ops (with their absolute cycle). *)
val to_grid : t -> Ocgra_dfg.Dfg.t -> Ocgra_arch.Cgra.t -> string
