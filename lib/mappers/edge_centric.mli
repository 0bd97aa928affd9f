(** Edge-centric modulo scheduling (EMS, Park et al. [37]): the router
    drives placement — each consumer lands on the cheapest (PE, cycle)
    reachable from its primary producer's routing cost field. *)

(** One {!Ocgra_core.Mapper.sweep} with up to 8 restarts per II.  The
    deadline is checked between restarts.  The context records one span
    per candidate-II attempt and the total attempt tally
    ([ems.attempts]). *)
val mapper : Ocgra_core.Mapper.t
