(** Branch-and-bound temporal mapping ([42]; stochastic pruning per
    [24]): depth-first over (PE, cycle) candidates with immediate
    routing, a per-node beam, and a global node budget. *)

(** One {!Ocgra_core.Mapper.sweep} with a beam of 10 candidates per
    node and 40000 nodes per II; [attempts] is the total number of
    expanded search nodes.  The deadline is checked per expanded node.
    The context records one span per candidate II and the expanded-node
    tally ([bb.expanded]). *)
val mapper : Ocgra_core.Mapper.t
