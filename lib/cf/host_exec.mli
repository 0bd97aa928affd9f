(** Host-managed control flow over a CDFG: each basic block is one
    CGRA configuration; the host walks the control-flow graph carrying
    the live variables.  This quantifies the launch/transfer traffic
    that predication avoids. *)

type block_plan = { block : int; live_in : string list; live_out : string list }

(** One entry per basic block, with the variables it reads and writes. *)
val make_plan : Ocgra_dfg.Cdfg.t -> block_plan list

(** Execute the CDFG with interpreter semantics from block 0;
    returns (dynamic block trace, output streams (newest first),
    final variable environment). *)
val interpret :
  ?max_steps:int ->
  Ocgra_dfg.Cdfg.t ->
  memory:(string * int array) list ->
  int list * (string, int list) Hashtbl.t * (string, int) Hashtbl.t

(** Launches (6 cycles each) + live-variable transfers (2 cycles per
    variable in or out) of one dynamic trace. *)
val trace_cost : block_plan list -> int list -> int
