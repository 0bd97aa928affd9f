(** Decoupled mappers: modulo list scheduling first, then binding by
    three different techniques (the Binding and Scheduling rows of
    Table I).  Each runs {!Sched.with_schedule} and counts its tries in
    [sched.attempts]. *)

(** Scheduling x heuristics: list schedule + greedy proximity binding,
    up to 10 tries per II. *)
val list_scheduling : Ocgra_core.Mapper.t

(** Binding x heuristics: list schedule + compatibility-graph
    maximum-clique binding (RAMP [38], REGIMap [46]), up to 4 tries per
    II. *)
val clique_binding : Ocgra_core.Mapper.t

(** Binding x QEA ([48]): list schedule + quantum-inspired binding, up
    to 6 tries per II. *)
val qea_binding : Ocgra_core.Mapper.t
