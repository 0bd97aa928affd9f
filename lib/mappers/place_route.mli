(** Incremental place-and-route state shared by the constructive
    mappers: claim a node on an FU slot, route every dependence whose
    other endpoint is already placed, roll back cleanly on failure. *)

type t = {
  problem : Ocgra_core.Problem.t;
  ii : int;
  occ : Ocgra_core.Occupancy.t;
  binding : (int * int) array;  (** (-1, -1) = unplaced *)
  placed : bool array;
  routes : Ocgra_core.Mapping.route option array;
  edges : Ocgra_dfg.Dfg.edge array;
  incident : int list array;  (** node -> indices of incident edges *)
  ws : Ocgra_core.Route.workspace;  (** the router buffers of {!place}'s searches *)
  mutable searches : int;  (** router searches {!place} has run on this state *)
}

val create : Ocgra_core.Problem.t -> ii:int -> t
val is_placed : t -> int -> bool
val binding_of : t -> int -> int * int

(** Place node [v] and route all its edges toward placed endpoints;
    rolls everything back and returns false on any failure. *)
val place : t -> int -> pe:int -> time:int -> bool

val unplace : t -> int -> unit
val to_mapping : t -> Ocgra_core.Mapping.t option

(** Feasible (earliest, latest) start window of [v] on [pe] given the
    placed neighbours, from hop-distance lower bounds; empty when
    est > lst. *)
val time_window : t -> int array array -> int -> int -> int * int
