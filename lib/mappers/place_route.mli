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
  mutable searches : int;  (** router searches {!place} and {!reach} have run on this state *)
}

(** An empty state whose {!place} searches run in [ws], a workspace
    over [problem]'s array that the caller owns and may hand to one
    state after another. *)
val create : ws:Ocgra_core.Route.workspace -> Ocgra_core.Problem.t -> ii:int -> t

val is_placed : t -> int -> bool
val binding_of : t -> int -> int * int

(** Place node [v] and route all its edges toward placed endpoints.
    On any failure it returns false and leaves the occupancy, the
    bindings and the routes exactly as they were (only [searches]
    moves). *)
val place : t -> int -> pe:int -> time:int -> bool

(** The in-edge reachability fields of an unplaced node. *)
type reach

(** [reach t wss v ~latest]: one strict router search, over the
    current occupancy, from the producer of each of [v]'s in-edges that
    is already placed (self-loops excluded), deep enough for [v] at
    cycle [latest].  The [k]-th search runs in [wss.(k)], so [wss]
    needs one workspace per such edge; each search counts in
    [searches].  The fields are valid while the occupancy and those
    workspaces are left alone; failed {!place} calls leave both. *)
val reach : t -> Ocgra_core.Route.workspace array -> int -> latest:int -> reach

(** [reachable r ~pe ~time] is false only when {!place} of the node at
    ([pe], [time]) must fail: some in-edge's value cannot reach a
    state a consumer there reads from, even before the node's own slot
    and its other routes are claimed.  Claims only remove router
    states, so such a goal stays out of reach of every search
    {!place} would run.  A cycle past [latest] is ruled out only when
    some in-edge's value is not yet readable there. *)
val reachable : reach -> pe:int -> time:int -> bool

val unplace : t -> int -> unit
val to_mapping : t -> Ocgra_core.Mapping.t option

(** {2 Placed neighbours}

    The window and proximity rules every greedy placer applies, read
    from one pass over a node's incident edges. *)

(** Buffers for one node's placed neighbours, sized for [problem]'s
    largest node degree, with its array's hop table: make one per
    mapper call and {!gather} into it per node. *)
type near

val near : Ocgra_core.Problem.t -> near

(** [gather t n v] refills [n] with [v]'s placed predecessors and
    successors in [t] (self-loops excluded); [t] must be a state over
    the problem [n] was made for.  [n] holds until the next call, while
    [t]'s placements stay as they are (a failed {!place} leaves them). *)
val gather : t -> near -> int -> unit

(** Earliest start of the gathered node on [pe]: each placed
    predecessor's ready cycle plus the hop-distance lower bound
    [max 0 (hops - 1)] (the last hop is free: a consumer reads its
    neighbours' output registers), at least 0; a predecessor with no
    path to [pe] bounds nothing. *)
val est : near -> int -> int

(** Latest start on [pe] that the placed successors leave, by the same
    rule, at most the problem's last cycle; the window is empty when
    [est > lst]. *)
val lst : near -> int -> int

(** Sum of hop distances between [pe] and the gathered neighbours it
    has a path to/from (one term per edge), or -1 when there is none. *)
val proximity : near -> int -> int
