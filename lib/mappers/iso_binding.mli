(** Graph-based binding via subgraph isomorphism on the modulo
    time-extended CGRA (the EPIMap [28] / graph-minor [27] / backward
    simultaneous [47] school): list-schedule, materialise every
    dependence as a chain of Route nodes so each pattern edge spans one
    cycle, then embed the pattern into the (PE, slot) graph with VF2.
    Injectivity on (PE, slot) is exactly FU exclusivity. *)

(** Bind a scheduled DFG; [None] when the embedding search fails. *)
val bind : Ocgra_core.Problem.t -> ii:int -> int array -> Ocgra_core.Mapping.t option

(** (mapping, attempts, proven optimal at MII), from one
    {!Ocgra_core.Mapper.sweep} with up to 4 schedule-and-embed attempts
    per II.  [deadline] is checked between attempts.  [obs] records one
    span per embedding attempt and counts attempts ([iso.matches]). *)
val map :
  ?deadline:Ocgra_core.Deadline.t ->
  ?obs:Ocgra_obs.Ctx.t ->
  Ocgra_core.Problem.t ->
  Ocgra_util.Rng.t ->
  Ocgra_core.Mapping.t option * int * bool

val mapper : Ocgra_core.Mapper.t
