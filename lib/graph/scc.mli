(** Tarjan's strongly connected components of a directed graph.  On a
    dependence graph the nontrivial components are its recurrence
    circuits.  RecMII does not use this module: [Dfg.rec_mii] runs a
    Bellman–Ford positive-cycle test per candidate II. *)

(** All components, each as a node list. *)
val compute : Digraph.t -> int list list

(** Components with more than one node, or a self-looping single node:
    the recurrence circuits. *)
val nontrivial : Digraph.t -> int list list
