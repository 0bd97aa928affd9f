(** Resource-constrained modulo list scheduling without placement: the
    decoupled first phase of the Table I "Scheduling" row. Resources
    are counted per functional class and modulo slot. *)

(** Times per node respecting dependences and class capacities, or
    [None] when the II is infeasible for this resource mix. *)
val modulo_list_schedule : Ocgra_core.Problem.t -> Ocgra_util.Rng.t -> ii:int -> int array option

(** [with_schedule ~obs ~tag ~counter ~note p rng ~restarts ~dl bind]
    is the schedule-then-bind mapper shared by the Binding and
    Scheduling rows: one {!Ocgra_core.Mapper.sweep} over [dl] with up to
    [restarts] tries per II, each a fresh {!modulo_list_schedule}
    handed to [bind ~ii times].  An II the list scheduler cannot
    schedule ends that II's tries.  Every try counts as an attempt and
    bumps [counter]; every bind runs in a ["<tag>:ii=N"] span whose
    category is [counter] up to its first dot.  A spatial problem gets
    no mapping and no attempt.  The outcome carries [note]. *)
val with_schedule :
  obs:Ocgra_obs.Ctx.t ->
  tag:string ->
  counter:string ->
  note:string ->
  Ocgra_core.Problem.t ->
  Ocgra_util.Rng.t ->
  restarts:int ->
  dl:Ocgra_core.Deadline.t ->
  (ii:int -> int array -> Ocgra_core.Mapping.t option) ->
  Ocgra_core.Mapper.outcome
