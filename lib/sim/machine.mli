(** Cycle-accurate, tag-checked execution of a mapping.

    Every value carries a (producer node, iteration) tag and every read
    asserts the tag it expects, so routing or scheduling bugs the
    static checker missed become {!Simulation_error}s rather than wrong
    numbers.  Loop-carried reads of iterations before the first are
    served from the kernel's initial values (standing in for the
    prologue a peeled/predicated kernel would run). *)

type error = { cycle : int; pe : int; message : string }

exception Simulation_error of error

(** Raised only by {!run_transient}: a hardware detection mechanism (a
    DMR {!Ocgra_dfg.Op.t.Cmp} comparator, or the tag check standing in
    for a control-flow checker) caught corrupted state.  Distinct from
    {!Simulation_error}, which in that mode means an outright crash. *)
exception Fault_detected of error

(** Bookkeeping of one fault-injected run: events handed in, events
    that struck live state, voter-input disagreements (TMR masking at
    work) and comparator/tag detections. *)
type transient_stats = {
  injected : int;
  applied : int;
  corrections : int;
  detections : int;
}

type io = {
  input : string -> int -> int;  (** stream name -> iteration -> value *)
  memory : (string, int array) Hashtbl.t;
}

val io_of_streams : ?memory:(string * int array) list -> (string * int array) list -> io

type stats = {
  cycles : int;
  op_instances : int;
  route_instances : int;
  rf_reads : int;
  rf_writes : int;
  pe_active_cycles : int;
}

type result = {
  outputs : (string, (int * int) list) Hashtbl.t;  (** name -> (iteration, value) *)
  stats : stats;
}

(** Output values in iteration order. *)
val output_stream : result -> string -> int list

(** Execute [iters] iterations of the mapped kernel.  Refuses (with
    {!Simulation_error}) mappings that use faulted resources.  [obs]
    records one [sim:run] span and flushes the run's tallies
    ([sim.cycles], [sim.op_instances], [sim.route_instances],
    [sim.rf_reads], [sim.rf_writes], [sim.pe_active_cycles]). *)
val run :
  ?obs:Ocgra_obs.Ctx.t ->
  Ocgra_core.Problem.t ->
  Ocgra_core.Mapping.t ->
  io ->
  iters:int ->
  result

(** Like {!run}, but applies the given transient events mid-run: bit
    flips corrupt the struck output register, link drops replace the
    crossing value with garbage, config upsets persistently rewire the
    struck slot's operand mux (caught by the tag check) or corrupt its
    immediate.  May raise {!Fault_detected} (corruption caught by a
    comparator or the tag check) or {!Simulation_error} (crash);
    otherwise the run completes — possibly with silently corrupted
    outputs, which is exactly what a reliability campaign measures. *)
val run_transient :
  Ocgra_core.Problem.t ->
  Ocgra_core.Mapping.t ->
  io ->
  iters:int ->
  transients:Ocgra_arch.Fault.transient list ->
  result * transient_stats
