(** Middle-end passes: dead-code elimination, common subexpression
    elimination, loop unrolling.  All passes preserve the
    interpreter semantics (property-tested). *)

(** Remove nodes that reach no side effect (Output/Store) through data
    dependences of any distance. *)
val dce : Dfg.t -> Dfg.t

(** Merge structurally identical pure nodes, then DCE. *)
val cse : Dfg.t -> Dfg.t

(** [unroll t u] replicates the body [u] times; Input/Output names gain
    [.k] suffixes, a dist-d edge from copy-space producer to consumer
    copy [k] becomes distance [(copy - (k - d)) / u]. *)
val unroll : Dfg.t -> int -> Dfg.t
