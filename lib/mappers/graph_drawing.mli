(** Graph-drawing-based spatial mapping (Yoon et al. [23]): spring
    layout of the DFG in the plane, nearest-free-cell legalisation,
    then pipeline stages and strict routing. *)

(** Force-directed coordinates (x, y per node). *)
val layout :
  Ocgra_core.Problem.t -> Ocgra_util.Rng.t -> iterations:int -> float array * float array

(** Snap to the nearest free capable cells; [None] when a node finds no
    cell. *)
val snap : Ocgra_core.Problem.t -> float array * float array -> int array option

(** (mapping, attempts): up to ten layouts, each snapped and strictly
    extracted.  [deadline] is checked between layouts.  [obs] records
    one span per layout and counts restarts ([graph_drawing.restarts]). *)
val map :
  ?deadline:Ocgra_core.Deadline.t ->
  ?obs:Ocgra_obs.Ctx.t ->
  Ocgra_core.Problem.t ->
  Ocgra_util.Rng.t ->
  Ocgra_core.Mapping.t option * int

val mapper : Ocgra_core.Mapper.t
