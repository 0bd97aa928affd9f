(** Energy proxy model for the Fig. 1-style architecture comparisons:
    per-event costs in arbitrary units with CMOS-folklore relative
    magnitudes; consistent across architectures rather than absolutely
    calibrated. *)

type model = {
  alu_op : float;
  mul_op : float;
  mem_op : float;
  io_op : float;
  route_hop : float;
  rf_access : float;
  config_fetch_per_pe : float;  (** per active PE per cycle *)
  leakage_per_pe : float;  (** per PE per cycle, active or not *)
}

val default : model
val op_energy : model -> Ocgra_dfg.Op.t -> float

(** Exact op-mix energy from the DFG and iteration count. *)
val of_mapping_run : ?model:model -> Ocgra_dfg.Dfg.t -> npe:int -> iters:int -> Machine.stats -> float

val efficiency : energy:float -> iters:int -> float
val throughput : cycles:int -> iters:int -> float
