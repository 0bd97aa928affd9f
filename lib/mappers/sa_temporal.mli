(** DRESC-style temporal mapping by simulated annealing ([22], [30]):
    anneal a full node->(PE, cycle) binding under an FU-collision +
    timing-feasibility + wirelength cost, then strict-route (with
    negotiated fallback) at extraction. *)

type state = { binding : (int * int) array }

(** The annealing cost (cheap, O(nodes + edges)). *)
val cost : Ocgra_core.Problem.t -> int array array -> ii:int -> state -> float

(** One annealing run + extraction at a fixed II.  Flushes the
    annealer's tallies to [obs] ([sa.steps], [sa.accepted]). *)
val try_ii :
  Ocgra_core.Problem.t ->
  Ocgra_util.Rng.t ->
  ii:int ->
  config:Ocgra_meta.Sa.config ->
  obs:Ocgra_obs.Ctx.t ->
  Ocgra_core.Mapping.t option

(** (mapping, attempts, proven optimal at MII), from one
    {!Ocgra_core.Mapper.sweep} with up to 3 annealing restarts per II
    under the default schedule; a spatial problem gets no mapping and
    no attempt.  [deadline] is checked between restarts.  [obs] records
    one span per annealing restart. *)
val map :
  ?deadline:Ocgra_core.Deadline.t ->
  ?obs:Ocgra_obs.Ctx.t ->
  Ocgra_core.Problem.t ->
  Ocgra_util.Rng.t ->
  Ocgra_core.Mapping.t option * int * bool

val mapper : Ocgra_core.Mapper.t
