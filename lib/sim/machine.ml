(* Cycle-accurate, tag-checked execution of a mapping.

   The machine advances one cycle at a time: every FU either executes
   its scheduled operation instance or one of its route hops, reading
   operands through the same mux structure the configuration words
   encode (neighbour output register, own output register, own RF) and
   writing its output register at the end of the cycle.  Every value
   carries a (producer node, iteration) tag and every read asserts the
   tag it expects, so any routing or scheduling bug the static checker
   somehow missed turns into a simulation error instead of a silently
   wrong number.

   Loop-carried reads of iterations before the first are served from
   the kernel's initial values (standing in for the prologue that a
   peeled or predicated kernel would execute); everything else flows
   through the datapath. *)

open Ocgra_dfg
open Ocgra_core

type error = { cycle : int; pe : int; message : string }

exception Simulation_error of error

(* Raised only in the fault-injecting mode: a hardware detection
   mechanism (a DMR comparator, or the tag check standing in for a
   control-flow checker) caught corrupted state before it reached an
   output.  Distinct from [Simulation_error], which in that mode means
   the machine crashed outright. *)
exception Fault_detected of error

(* Bookkeeping of one fault-injected run. *)
type transient_stats = {
  injected : int; (* events in the campaign's list for this trial *)
  applied : int; (* events that actually struck live state *)
  corrections : int; (* voter inputs that disagreed (TMR masking at work) *)
  detections : int; (* comparator mismatches (counted before the raise) *)
}

type io = {
  input : string -> int -> int; (* stream name -> iteration -> value *)
  memory : (string, int array) Hashtbl.t;
}

let io_of_streams ?(memory = []) streams =
  let env = Eval.env_of_streams ~memory streams in
  { input = env.Eval.input; memory = env.Eval.memory }

type stats = {
  cycles : int;
  op_instances : int;
  route_instances : int;
  rf_reads : int;
  rf_writes : int;
  pe_active_cycles : int;
}

type result = {
  outputs : (string, (int * int) list) Hashtbl.t; (* name -> (iteration, value) list *)
  stats : stats;
}

let output_stream result name =
  match Hashtbl.find_opt result.outputs name with
  | None -> []
  | Some l -> List.map snd (List.sort compare l)

(* Where a read finds its value (base-iteration coordinates). *)
type source =
  | From_out of int (* output register of this PE *)
  | From_rf of int * int (* (edge index, hold from_): own register file *)

(* What a PE does at one base cycle. *)
type instr =
  | I_node of int (* DFG node *)
  | I_hop of int * source (* edge index, where the hop reads from *)

(* The machine refuses to execute on faulted resources: even if a
   mapping somehow passed (or bypassed) the static checker, a faulted
   PE, link or FU slot has no working silicon behind it.  This is an
   independent second check, deliberately not shared with Check. *)
let refuse_faults (p : Problem.t) (m : Mapping.t) =
  let cgra = p.cgra in
  if Ocgra_arch.Cgra.faults cgra <> [] then begin
    let refuse ~cycle ~pe fmt =
      Printf.ksprintf (fun message -> raise (Simulation_error { cycle; pe; message })) fmt
    in
    Array.iteri
      (fun v (pe, time) ->
        if not (Ocgra_arch.Cgra.pe_ok cgra pe) then
          refuse ~cycle:time ~pe "refusing to execute node %d on faulted PE %d (pe-down)" v pe;
        if not (Ocgra_arch.Cgra.slot_ok cgra ~pe ~ii:m.Mapping.ii ~time) then
          refuse ~cycle:time ~pe "refusing to execute node %d in dead FU slot (pe %d, slot %d)" v
            pe (((time mod m.Mapping.ii) + m.Mapping.ii) mod m.Mapping.ii))
      m.Mapping.binding;
    let dfg_edges = Array.of_list (Dfg.edges p.dfg) in
    Array.iteri
      (fun e route ->
        let cur = ref (fst m.Mapping.binding.(dfg_edges.(e).Dfg.src)) in
        List.iter
          (function
            | Mapping.Hop { pe; time } ->
                if not (Ocgra_arch.Cgra.pe_ok cgra pe) then
                  refuse ~cycle:time ~pe "refusing edge %d hop on faulted PE %d (pe-down)" e pe;
                if not (Ocgra_arch.Cgra.slot_ok cgra ~pe ~ii:m.Mapping.ii ~time) then
                  refuse ~cycle:time ~pe "refusing edge %d hop in dead FU slot on PE %d" e pe;
                if !cur <> pe && not (Ocgra_arch.Cgra.link_ok cgra !cur pe) then
                  refuse ~cycle:time ~pe "refusing edge %d hop over faulted link %d->%d" e !cur pe;
                cur := pe
            | Mapping.Hold { pe; from_; _ } ->
                if not (Ocgra_arch.Cgra.pe_ok cgra pe) then
                  refuse ~cycle:from_ ~pe "refusing edge %d hold on faulted PE %d (pe-down)" e pe)
          route)
      m.Mapping.routes
  end

let run_internal (p : Problem.t) (m : Mapping.t) (io : io) ~iters
    ~(transients : Ocgra_arch.Fault.transient list) =
  refuse_faults p m;
  let dfg = p.dfg in
  let npe = Ocgra_arch.Cgra.pe_count p.cgra in
  (* transient-event lookup tables; all empty (and free) when the list
     is, so the clean path pays one boolean test per read/write *)
  let faulty = transients <> [] in
  let flips : (int * int, int list) Hashtbl.t = Hashtbl.create 16 in
  let drops : (int * int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  (* (pe, slot) -> (first upset cycle, flipped bit): config memory
     holds state, so the earliest hit owns the slot for the rest *)
  let upsets : (int * int, int * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      match (ev : Ocgra_arch.Fault.transient) with
      | Ocgra_arch.Fault.Bit_flip { pe; cycle; bit } ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt flips (pe, cycle)) in
          Hashtbl.replace flips (pe, cycle) (bit :: cur)
      | Ocgra_arch.Fault.Link_drop { src; dst; cycle } -> Hashtbl.replace drops (src, dst, cycle) ()
      | Ocgra_arch.Fault.Config_upset { pe; cycle; bit } -> (
          let key = (pe, ((cycle mod m.Mapping.ii) + m.Mapping.ii) mod m.Mapping.ii) in
          match Hashtbl.find_opt upsets key with
          | Some (c0, _) when c0 <= cycle -> ()
          | _ -> Hashtbl.replace upsets key (cycle, bit)))
    transients;
  let applied = ref 0 and corrections = ref 0 and detections = ref 0 in
  let edges = Array.of_list (Dfg.edges dfg) in
  (* location of edge e's value just before base cycle [upto_time] *)
  let route_state e upto_time =
    let edge = edges.(e) in
    let src_pe, _ = m.binding.(edge.src) in
    let cur = ref src_pe and in_rf = ref false and hold_from = ref 0 in
    List.iter
      (fun step ->
        match step with
        | Mapping.Hop { pe; time } ->
            if time < upto_time then begin
              cur := pe;
              in_rf := false
            end
        | Mapping.Hold { pe; from_; until } ->
            if from_ < upto_time && until >= upto_time then begin
              cur := pe;
              in_rf := true;
              hold_from := from_
            end)
      m.routes.(e);
    if !in_rf then From_rf (e, !hold_from) else From_out !cur
  in
  (* instruction table: (pe, base cycle) with slot exclusivity already
     guaranteed by the checker *)
  let instrs : (int * int, instr) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri (fun v (pe, time) -> Hashtbl.replace instrs (pe, time) (I_node v)) m.binding;
  Array.iteri
    (fun e route ->
      List.iter
        (function
          | Mapping.Hop { pe; time } ->
              Hashtbl.replace instrs (pe, time) (I_hop (e, route_state e time))
          | Mapping.Hold _ -> ())
        route)
    m.routes;
  (* holds started by the instruction producing at base cycle from_ *)
  let holds_from : (int * int, (int * int) list) Hashtbl.t = Hashtbl.create 32 in
  Array.iteri
    (fun e route ->
      List.iter
        (function
          | Mapping.Hold { pe; from_; _ } ->
              let cur = Option.value ~default:[] (Hashtbl.find_opt holds_from (pe, from_)) in
              Hashtbl.replace holds_from (pe, from_) ((e, from_) :: cur)
          | Mapping.Hop _ -> ())
        route)
    m.routes;
  (* per-node operand edge indices sorted by port *)
  let operand_edges = Array.make (Dfg.node_count dfg) [] in
  Array.iteri (fun e (edge : Dfg.edge) -> operand_edges.(edge.dst) <- e :: operand_edges.(edge.dst)) edges;
  let operand_edges =
    Array.map
      (fun es -> List.sort (fun e1 e2 -> compare edges.(e1).Dfg.port edges.(e2).Dfg.port) es)
      operand_edges
  in
  (* machine state *)
  let out_value = Array.make npe 0 in
  let out_tag : (int * int) option array = Array.make npe None in
  let rf : (int * int * int * int, int) Hashtbl.t = Hashtbl.create 64 in
  (* key: (pe, edge, hold from_, iteration) *)
  let outputs = Hashtbl.create 8 in
  let op_instances = ref 0 and route_instances = ref 0 in
  let rf_reads = ref 0 and rf_writes = ref 0 and active = ref 0 in
  let fail cycle pe fmt =
    Printf.ksprintf (fun message -> raise (Simulation_error { cycle; pe; message })) fmt
  in
  (* In the fault-injecting mode the tag check plays the role of the
     hardware's control/dataflow checker: a corrupted configuration
     that reads the wrong register is a *detected* fault, not a
     simulator bug.  Clean runs keep the hard [Simulation_error]. *)
  let detect cycle pe fmt =
    Printf.ksprintf
      (fun message ->
        if faulty then begin
          incr detections;
          raise (Fault_detected { cycle; pe; message })
        end
        else raise (Simulation_error { cycle; pe; message }))
      fmt
  in
  let t_end =
    Hashtbl.fold (fun (_, base) _ acc -> max acc (base + ((iters - 1) * m.ii))) instrs 0
  in
  (* slot table: FU exclusivity means at most one instruction per
     (pe, slot) *)
  let slot_table : (int * instr) option array = Array.make (npe * m.ii) None in
  Hashtbl.iter
    (fun (pe, base) instr -> slot_table.((pe * m.ii) + (base mod m.ii)) <- Some (base, instr))
    instrs;
  for t = 0 to t_end do
    let slot = t mod m.ii in
    let out_writes = ref [] in
    let rf_inserts = ref [] in
    for pe = 0 to npe - 1 do
      let found =
        match slot_table.((pe * m.ii) + slot) with
        | Some (base, instr) when t >= base && (t - base) / m.ii < iters -> Some (base, instr)
        | _ -> None
      in
      match found with
      | None -> ()
      | Some (base, instr) ->
          let iter = (t - base) / m.ii in
          (* a config upset owns this (pe, slot) from its first hit on *)
          let upset =
            if faulty then
              match Hashtbl.find_opt upsets (pe, slot) with
              | Some (c0, bit) when t >= c0 -> Some bit
              | _ -> None
            else None
          in
          let reads = ref 0 in
          let read_from ~origin ~src_iter src =
            incr reads;
            let src =
              (* the upset slot decodes a wrong operand mux: the read
                 lands on an arbitrary register, and the tag check
                 (below) catches the impostor value *)
              match upset with
              | Some bit ->
                  incr applied;
                  From_out ((pe + 1 + (bit mod max 1 (npe - 1))) mod npe)
              | None -> src
            in
            match src with
            | From_rf (e, hold_from) -> (
                incr rf_reads;
                match Hashtbl.find_opt rf (pe, e, hold_from, src_iter) with
                | Some v -> v
                | None -> fail t pe "RF miss: edge %d hold@%d iteration %d" e hold_from src_iter)
            | From_out q ->
                if faulty && q <> pe && Hashtbl.mem drops (q, pe, t) then begin
                  (* the wire glitched: garbage is latched in place of
                     the value; no tag check — hardware sees no tags *)
                  incr applied;
                  0
                end
                else (
                  match out_tag.(q) with
                  | Some (u, i) when u = origin && i = src_iter -> out_value.(q)
                  | Some (u, i) ->
                      detect t pe
                        "tag mismatch on PE %d: expected node %d iter %d, found node %d iter %d" q
                        origin src_iter u i
                  | None -> detect t pe "read of empty output register on PE %d" q)
          in
          let execute () =
            match instr with
            | I_hop (e, src) ->
                incr route_instances;
                let origin = edges.(e).Dfg.src in
                let v = read_from ~origin ~src_iter:iter src in
                (v, (origin, iter))
            | I_node v ->
                incr op_instances;
                let args =
                  List.map
                    (fun e ->
                      let edge = edges.(e) in
                      let src_iter = iter - edge.dist in
                      if src_iter < 0 then p.init edge.src
                      else begin
                        let consume_base = snd m.binding.(v) + (edge.dist * m.ii) in
                        read_from ~origin:edge.src ~src_iter (route_state e consume_base)
                      end)
                    operand_edges.(v)
                in
                let value =
                  match (Dfg.op dfg v, args) with
                  | Op.Const c, [] -> c
                  | Op.Input s, [] -> io.input s iter
                  | Op.Output s, [ x ] ->
                      let cur = Option.value ~default:[] (Hashtbl.find_opt outputs s) in
                      Hashtbl.replace outputs s ((iter, x) :: cur);
                      x
                  | Op.Binop b, [ x; y ] -> Op.eval_binop b x y
                  | Op.Not, [ x ] -> lnot x
                  | Op.Neg, [ x ] -> -x
                  | Op.Select, [ c; a; b ] -> if c <> 0 then a else b
                  | Op.Load arr, [ idx ] -> (
                      match Hashtbl.find_opt io.memory arr with
                      | None -> fail t pe "no memory array %s" arr
                      | Some a -> a.(((idx mod Array.length a) + Array.length a) mod Array.length a))
                  | Op.Store arr, [ idx; x ] -> (
                      match Hashtbl.find_opt io.memory arr with
                      | None -> fail t pe "no memory array %s" arr
                      | Some a ->
                          a.(((idx mod Array.length a) + Array.length a) mod Array.length a) <- x;
                          x)
                  | Op.Route, [ x ] -> x
                  | Op.Vote, [ a; b; c ] ->
                      if faulty && not (a = b && b = c) then incr corrections;
                      Op.eval_vote a b c
                  | Op.Cmp, [ x; y ] ->
                      if faulty && x <> y then
                        detect t pe "DMR comparator mismatch on node %d (%d <> %d)" v x y
                      else x
                  | Op.Nop, [] -> 0
                  | op, _ -> fail t pe "bad arity executing %s" (Op.to_string op)
                in
                (value, (v, iter))
          in
          let value, tag = execute () in
          (* datapath upsets strike the produced value itself: bit
             flips on the output register written this cycle, and
             config upsets of operand-less slots (a corrupted
             immediate/opcode has no read for the tag check to catch) *)
          let value =
            if faulty then begin
              let value =
                match Hashtbl.find_opt flips (pe, t) with
                | Some bits ->
                    List.fold_left
                      (fun v bit ->
                        incr applied;
                        v lxor (1 lsl bit))
                      value bits
                | None -> value
              in
              match upset with
              | Some bit when !reads = 0 ->
                  incr applied;
                  value lxor (1 lsl (bit mod 24))
              | _ -> value
            end
            else value
          in
          incr active;
          out_writes := (pe, value, tag) :: !out_writes;
          (* start any holds whose write cycle is this instruction's
             production cycle (base + latency - 1) *)
          let lat = match instr with I_node v -> Op.latency (Dfg.op dfg v) | I_hop _ -> 1 in
          List.iter
            (fun (e, from_) ->
              rf_inserts := ((pe, e, from_, iter), value) :: !rf_inserts;
              incr rf_writes)
            (Option.value ~default:[] (Hashtbl.find_opt holds_from (pe, base + lat - 1)))
    done;
    List.iter
      (fun (pe, value, tag) ->
        out_value.(pe) <- value;
        out_tag.(pe) <- Some tag)
      !out_writes;
    List.iter (fun (key, value) -> Hashtbl.replace rf key value) !rf_inserts
  done;
  ( {
      outputs;
      stats =
        {
          cycles = t_end + 1;
          op_instances = !op_instances;
          route_instances = !route_instances;
          rf_reads = !rf_reads;
          rf_writes = !rf_writes;
          pe_active_cycles = !active;
        };
    },
    {
      injected = List.length transients;
      applied = !applied;
      corrections = !corrections;
      detections = !detections;
    } )

let flush_stats obs (s : stats) =
  Ocgra_obs.Ctx.add obs "sim.cycles" s.cycles;
  Ocgra_obs.Ctx.add obs "sim.op_instances" s.op_instances;
  Ocgra_obs.Ctx.add obs "sim.route_instances" s.route_instances;
  Ocgra_obs.Ctx.add obs "sim.rf_reads" s.rf_reads;
  Ocgra_obs.Ctx.add obs "sim.rf_writes" s.rf_writes;
  Ocgra_obs.Ctx.add obs "sim.pe_active_cycles" s.pe_active_cycles

let run ?(obs = Ocgra_obs.Ctx.off) p m io ~iters =
  let result =
    Ocgra_obs.Ctx.span obs ~cat:"sim" "sim:run" (fun () ->
        fst (run_internal p m io ~iters ~transients:[]))
  in
  flush_stats obs result.stats;
  result
let run_transient p m io ~iters ~transients = run_internal p m io ~iters ~transients
