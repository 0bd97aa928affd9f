(* Configuration generation: a valid mapping becomes the II context
   words that the paper calls the hardware/software contract (Fig. 2c).

   Every FU slot of the modulo schedule becomes one PE slot in one of
   the II contexts: opcode, operand mux selects (neighbour index, self,
   RF entry, immediate), RF write enable for values that a Hold parks
   in the register file.  RF entries are logical indices into a
   rotating register file ([29]), so one index per hold suffices. *)

open Ocgra_dfg
open Ocgra_arch

type build = {
  contexts : Context.t array; (* ii contexts, each npe slots *)
  dict : Context.Dict.t;
}

(* A [Src_dir] operand selects an input port, one per physical link into
   the consumer ([Cgra.raw_neighbours]; every topology is symmetric).
   Faults mask links, not ports, so a port keeps its index under any mask. *)
let source_from (cgra : Cgra.t) ~consumer_pe ~from_pe ~in_rf ~rf_index =
  if in_rf then Context.Src_rf rf_index
  else if from_pe = consumer_pe then Context.Src_self
  else begin
    let rec find i = function
      | [] -> invalid_arg "Contexts: producer not adjacent to consumer"
      | q :: _ when q = from_pe -> i
      | _ :: rest -> find (i + 1) rest
    in
    Context.Src_dir (find 0 (Cgra.raw_neighbours cgra consumer_pe))
  end

let of_mapping (p : Problem.t) (m : Mapping.t) =
  let dfg = p.dfg and cgra = p.cgra in
  let npe = Cgra.pe_count cgra in
  let dict = Context.Dict.create () in
  let contexts = Array.init m.ii (fun _ -> Array.make npe Context.nop_slot) in
  let slot_of time = ((time mod m.ii) + m.ii) mod m.ii in
  (* assign a logical rotating-RF index to every hold, per PE *)
  let rf_counter = Array.make npe 0 in
  let hold_index = Hashtbl.create 16 in
  (* keyed by (edge, pe, from_) *)
  Array.iteri
    (fun e route ->
      List.iter
        (function
          | Mapping.Hold { pe; from_; _ } ->
              let size = max 1 (Cgra.pe cgra pe).Pe.rf_size in
              Hashtbl.replace hold_index (e, pe, from_) (rf_counter.(pe) mod size);
              rf_counter.(pe) <- rf_counter.(pe) + 1
          | Mapping.Hop _ -> ())
        route)
    m.routes;
  (* location of a value along its route just before a given hop time,
     and at the end for the consumer *)
  let edges = Array.of_list (Dfg.edges dfg) in
  let route_state e upto_time =
    (* state (pe, in_rf, rf_index) of edge e's value readable at
       cycle [upto_time] (exclusive of a hop occurring at that time) *)
    let edge = edges.(e) in
    let src_pe, _ = m.binding.(edge.src) in
    let cur = ref src_pe and in_rf = ref false and rf_idx = ref 0 in
    List.iter
      (fun step ->
        match step with
        | Mapping.Hop { pe; time } -> if time < upto_time then begin
            cur := pe;
            in_rf := false
          end
        | Mapping.Hold { pe; from_; until } ->
            if from_ < upto_time && until >= upto_time then begin
              cur := pe;
              in_rf := true;
              rf_idx := (try Hashtbl.find hold_index (e, pe, from_) with Not_found -> 0)
            end)
      m.routes.(e);
    (!cur, !in_rf, !rf_idx)
  in
  (* 1. op slots *)
  Array.iteri
    (fun v (pe, time) ->
      let op = Dfg.op dfg v in
      let srcs = Array.make 3 Context.Src_none in
      List.iter
        (fun (edge : Dfg.edge) ->
          let e =
            let rec find i = function
              | [] -> invalid_arg "Contexts: edge not found"
              | (x : Dfg.edge) :: rest ->
                  if x.src = edge.src && x.dst = edge.dst && x.port = edge.port && x.dist = edge.dist
                  then i
                  else find (i + 1) rest
            in
            find 0 (Dfg.edges dfg)
          in
          let consume_at = time + (edge.dist * m.ii) in
          let from_pe, in_rf, rf_index = route_state e consume_at in
          srcs.(edge.port) <- source_from cgra ~consumer_pe:pe ~from_pe ~in_rf ~rf_index)
        (Dfg.in_edges dfg v);
      contexts.(slot_of time).(pe) <- Context.slot_of_op dict op srcs)
    m.binding;
  (* 2. route hops *)
  Array.iteri
    (fun e route ->
      List.iter
        (function
          | Mapping.Hop { pe; time } ->
              let from_pe, in_rf, rf_index = route_state e time in
              let srcs =
                [| source_from cgra ~consumer_pe:pe ~from_pe ~in_rf ~rf_index;
                   Context.Src_none; Context.Src_none |]
              in
              contexts.(slot_of time).(pe) <- Context.slot_of_op dict Op.Route srcs
          | Mapping.Hold _ -> ())
        route)
    m.routes;
  (* 3. RF write enables: the instruction executing at (pe, from_) also
     writes its result into the RF *)
  Array.iteri
    (fun e route ->
      ignore e;
      List.iter
        (function
          | Mapping.Hold { pe; from_; _ } ->
              let s = contexts.(slot_of from_).(pe) in
              let waddr = try Hashtbl.find hold_index (e, pe, from_) with Not_found -> 0 in
              contexts.(slot_of from_).(pe) <- { s with Context.rf_we = true; rf_waddr = waddr }
          | Mapping.Hop _ -> ())
        route)
    m.routes;
  { contexts; dict }

(* Raw bit encoding of the whole context memory. *)
let encode (b : build) = Array.map (Array.map Context.encode_slot) b.contexts

let to_string (p : Problem.t) (b : build) = Context.pp_contexts b.contexts p.cgra
