(** Energy proxy model for the Fig. 1-style architecture comparisons:
    per-event costs in arbitrary units with CMOS-folklore relative
    magnitudes (a multiply costs four ALU ops, a memory access six);
    consistent across architectures rather than absolutely calibrated. *)

(** Exact op-mix energy from the DFG and iteration count, plus routing,
    register-file, configuration-fetch and leakage costs from the
    simulator's statistics. *)
val of_mapping_run : Ocgra_dfg.Dfg.t -> npe:int -> iters:int -> Machine.stats -> float

val efficiency : energy:float -> iters:int -> float
