(** Quantum-inspired evolutionary algorithm over binary genomes: each
    "qubit" is a probability of observing 1; generations observe,
    evaluate, and rotate the probabilities toward the best genome.
    Fitness is maximized. *)

type config = {
  population : int;
  generations : int;
  rotation : float;  (** probability shift per generation toward the best *)
}

(** Returns (best genome, best fitness, evaluations). *)
val run :
  ?config:config ->
  ?stop_at:float ->
  Ocgra_util.Rng.t ->
  n_bits:int ->
  fitness:(bool array -> float) ->
  bool array * float * int
