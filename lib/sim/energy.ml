(* Energy proxy model.

   The Fig. 1 comparison (flexibility / performance / energy-efficiency
   trade-off between architecture classes) needs an energy accounting
   that is consistent across architectures rather than absolutely
   calibrated: per-event costs are in arbitrary "energy units" with
   relative magnitudes taken from the usual CMOS folklore (a multiply
   costs several adds, a memory access costs more than an ALU op, every
   live cycle pays configuration-fetch and leakage). *)

open Ocgra_dfg

type model = {
  alu_op : float;
  mul_op : float;
  mem_op : float;
  io_op : float;
  route_hop : float;
  rf_access : float;
  config_fetch_per_pe : float; (* per active PE per cycle *)
  leakage_per_pe : float; (* per PE per cycle, active or not *)
}

let default =
  {
    alu_op = 1.0;
    mul_op = 4.0;
    mem_op = 6.0;
    io_op = 2.0;
    route_hop = 0.6;
    rf_access = 1.2; (* every value parked in a register file pays write+read;
                        on a single temporal PE *all* forwarding goes this way,
                        which is the sequential processor's energy tax *)
    config_fetch_per_pe = 0.4;
    leakage_per_pe = 0.02;
  }

let op_energy model op =
  match Op.func_class op with
  | Op.F_alu -> model.alu_op
  | Op.F_mul -> model.mul_op
  | Op.F_mem -> model.mem_op
  | Op.F_io -> model.io_op
  | Op.F_route -> model.route_hop

(* Exact op-mix energy from the DFG and iteration count. *)
let of_mapping_run (dfg : Dfg.t) ~npe ~iters (stats : Machine.stats) =
  let ops =
    Dfg.fold_nodes (fun nd acc -> acc +. op_energy default nd.Dfg.op) dfg 0.0 *. float_of_int iters
  in
  ops
  +. (default.route_hop *. float_of_int stats.Machine.route_instances)
  +. (default.rf_access *. float_of_int (stats.rf_reads + stats.rf_writes))
  +. (default.config_fetch_per_pe *. float_of_int stats.pe_active_cycles)
  +. (default.leakage_per_pe *. float_of_int (npe * stats.cycles))

(* Efficiency in iterations per energy unit: an axis of the Fig. 1
   reproduction. *)
let efficiency ~energy ~iters = float_of_int iters /. energy
