(** Branch-and-bound temporal mapping ([42]; stochastic pruning per
    [24]): depth-first over (PE, cycle) candidates with immediate
    routing, a per-node beam, and a global node budget. *)

(** One bounded search at a fixed II; returns (mapping, nodes
    expanded). *)
val attempt :
  Ocgra_core.Problem.t ->
  Ocgra_util.Rng.t ->
  ii:int ->
  beam:int ->
  max_nodes:int ->
  dl:Ocgra_core.Deadline.t ->
  Ocgra_core.Mapping.t option * int

(** (mapping, total nodes expanded, proven optimal at MII), from one
    {!Ocgra_core.Mapper.sweep} with a beam of 10 candidates per node and
    40000 nodes per II.  [deadline] is checked per expanded search
    node.  [obs] records one span per candidate II and the total
    expanded-node tally ([bb.expanded]). *)
val map :
  ?deadline:Ocgra_core.Deadline.t ->
  ?obs:Ocgra_obs.Ctx.t ->
  Ocgra_core.Problem.t ->
  Ocgra_util.Rng.t ->
  Ocgra_core.Mapping.t option * int * bool

val mapper : Ocgra_core.Mapper.t
