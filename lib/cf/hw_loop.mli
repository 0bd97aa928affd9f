(** Hardware-loop cost model (Section III.B.2, [62]-[64]): cycles under
    host-managed iteration control versus an in-array loop counter. *)

type overhead_model = {
  host_issue_cycles : int;  (** host -> CGRA kernel launch *)
  host_control_cycles : int;  (** increment + test + branch on the host *)
  config_fetch_cycles : int;  (** context switch per launch *)
}

val default_overhead : overhead_model

(** Host relaunches the kernel each iteration (no cross-iteration
    pipelining). *)
val host_managed_cycles : overhead_model -> schedule_length:int -> iters:int -> int

(** One launch, pipelined iterations at the given II. *)
val hw_loop_cycles : overhead_model -> ii:int -> schedule_length:int -> iters:int -> int

(** Two-level hardware loop for a nest, vs inner-only support. *)
val nested_hw_cycles :
  overhead_model -> ii:int -> schedule_length:int -> inner:int -> outer:int -> int

val inner_only_cycles :
  overhead_model -> ii:int -> schedule_length:int -> inner:int -> outer:int -> int
