(** Shared machinery of the spatial meta-heuristic mappers: placement
    genomes (node -> PE), collision + wirelength cost, and strict
    extraction (pipeline stages + routing). *)

val random_genome : Ocgra_core.Problem.t -> Ocgra_util.Rng.t -> int array

(** [genome_cost p hop_table genome]: collisions dominate, then
    wirelength. *)
val genome_cost : Ocgra_core.Problem.t -> int array array -> int array -> int

(** Fixed PEs from the genome, greedy pipeline stages (at most 8 cycles
    past each node's earliest start), strict routes. *)
val extract : Ocgra_core.Problem.t -> int array -> Ocgra_core.Mapping.t option

val mutate : Ocgra_core.Problem.t -> Ocgra_util.Rng.t -> int array -> int array
val crossover : Ocgra_util.Rng.t -> int array -> int array -> int array
