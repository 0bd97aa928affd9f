(* Hardware loop support (Section III.B.2, "hardware loops": [62]
   LASER, [63] Sunny et al., [64] Vadivel et al.).

   Without hardware loops the host processor steers every iteration:
   it issues the kernel, waits, increments, tests and re-issues.  With
   a hardware loop counter inside the CGRA the configuration memory
   replays the kernel II cycles per iteration with zero control
   overhead.  This model quantifies the cycle cost of both regimes,
   which is the ablation the papers report. *)

type overhead_model = {
  host_issue_cycles : int; (* host -> CGRA kernel launch *)
  host_control_cycles : int; (* increment + test + branch on the host *)
  config_fetch_cycles : int; (* context switch cost per launch *)
}

let default_overhead = { host_issue_cycles = 4; host_control_cycles = 3; config_fetch_cycles = 2 }

(* Cycles to run [iters] iterations of a kernel with the given II and
   schedule length (pipeline fill) under host-managed looping: the
   kernel is re-launched per iteration (no pipelining across
   iterations, as the paper notes: "letting the control flow managed by
   a host processor ... reduces greatly the possibilities"). *)
let host_managed_cycles model ~schedule_length ~iters =
  iters * (model.host_issue_cycles + model.config_fetch_cycles + schedule_length + model.host_control_cycles)

(* With a hardware loop: one launch, pipelined iterations. *)
let hw_loop_cycles model ~ii ~schedule_length ~iters =
  model.host_issue_cycles + model.config_fetch_cycles + schedule_length + ((iters - 1) * ii)

(* Nested-loop support ([42] dnestmap, [63]): a two-level hardware loop
   replays the inner kernel [inner] times for each of [outer] passes
   without host intervention; compare against inner-only support. *)
let nested_hw_cycles model ~ii ~schedule_length ~inner ~outer =
  model.host_issue_cycles + model.config_fetch_cycles + schedule_length
  + (((inner * outer) - 1) * ii)

let inner_only_cycles model ~ii ~schedule_length ~inner ~outer =
  outer * hw_loop_cycles model ~ii ~schedule_length ~iters:inner
