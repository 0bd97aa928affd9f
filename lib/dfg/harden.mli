(** DMR/TMR hardening transforms against transient faults.

    Hardening happens at the DFG level, so a hardened kernel is just
    another DFG: every mapper, the validator and the simulator handle
    it unchanged.  The compute sphere is replicated (2x for DMR, 3x
    for TMR) with per-replica loop recurrences; side-effect sinks
    (Output, Store) stay single and each of their operands is fused
    through a guard node — a {!Op.t.Vote} majority voter (TMR, masks
    corruption) or a {!Op.t.Cmp} duplicate comparator (DMR, detects
    it).

    Semantics are preserved: on a fault-free run the hardened DFG
    produces exactly the original output streams (property-tested).

    Do not run {!Transform.cse} after hardening — replicas are
    structurally identical and would be merged back into one.  Harden
    last. *)

type mode = No_harden | Dmr | Tmr

val mode_to_string : mode -> string

(** [apply mode t] returns the hardened DFG and [origin], mapping each
    new node id to the original node it replicates (guards map to the
    value they guard; the identity for [No_harden]).  Compose
    problem-level init functions through [origin]. *)
val apply : mode -> Dfg.t -> Dfg.t * (int -> int)
