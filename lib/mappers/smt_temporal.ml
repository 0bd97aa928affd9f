(* SMT-based mapping ([44] Donovick et al., who target CGRAs with
   restricted routing networks).

   The placement structure is propositional (one PE per op, at most one
   op per PE — the restricted-routing regime) while the schedule lives
   in integer difference logic: for every dependence and every
   placement pair, a conditional atom t_v - t_u >= lat + hops(p,q) - 1
   - dist*II.  The lazy IDL solver finds a placement+schedule; routing
   is then strict, with placement blocking clauses on failure. *)

open Ocgra_dfg
open Ocgra_core
module Smt = Ocgra_smt.Smt
module Sat = Ocgra_sat.Solver
module Enc = Ocgra_sat.Encodings

let flush_stats obs smt =
  let s = Sat.stats (Smt.sat_solver smt) in
  Ocgra_obs.Ctx.add obs "sat.conflicts" s.conflicts;
  Ocgra_obs.Ctx.add obs "sat.decisions" s.decisions;
  Ocgra_obs.Ctx.add obs "sat.propagations" s.propagations;
  Ocgra_obs.Ctx.add obs "sat.restarts" s.restarts;
  Array.iteri (fun lbd k -> Ocgra_obs.Ctx.observe_n obs "sat.lbd" lbd k) s.lbd;
  Ocgra_obs.Ctx.add obs "smt.rounds" (Smt.rounds smt)

let try_ii (p : Problem.t) ~ii ~should_stop ~obs =
  let dfg = p.dfg and cgra = p.cgra in
  let npe = Ocgra_arch.Cgra.pe_count cgra in
  let n = Dfg.node_count dfg in
  let hop_table = Ocgra_arch.Cgra.hop_table cgra in
  let horizon = min (Problem.max_time p) (Dfg.critical_path dfg + (2 * ii) + 6) in
  let smt = Smt.create () in
  let sat = Smt.sat_solver smt in
  (* placement booleans *)
  let b =
    Array.init n (fun v ->
        List.map
          (fun pe -> (pe, Smt.new_bool smt))
          (Ocgra_arch.Cgra.capable_pes cgra (Dfg.op dfg v)))
  in
  Array.iter (fun bs -> Enc.exactly_one sat (List.map snd bs)) b;
  (* restricted routing: at most one op per PE *)
  for pe = 0 to npe - 1 do
    let users = Array.to_list b |> List.concat_map (List.filter (fun (q, _) -> q = pe)) in
    Enc.at_most_one sat (List.map snd users)
  done;
  (* integer times with a zero reference *)
  let zero = Smt.new_int smt in
  let time = Array.init n (fun _ -> Smt.new_int smt) in
  Array.iter
    (fun tv ->
      Sat.add_clause sat [ Smt.atom_ge smt tv zero 0 ];
      Sat.add_clause sat [ Smt.atom_le smt tv zero (horizon - 1) ])
    time;
  (* conditional timing atoms *)
  List.iter
    (fun (e : Dfg.edge) ->
      let lat = Op.latency (Dfg.op dfg e.src) in
      if e.src = e.dst then begin
        (* recurrence on one op: lat <= dist * ii must hold *)
        if lat > e.dist * ii then Sat.add_clause sat []
      end
      else
        List.iter
          (fun (pu, bu) ->
            List.iter
              (fun (pv, bv) ->
                let h = hop_table.(pu).(pv) in
                if h >= Ocgra_graph.Paths.unreachable then
                  Sat.add_clause sat [ Sat.negate bu; Sat.negate bv ]
                else begin
                  let bound = lat + max 0 (h - 1) - (e.dist * ii) in
                  let atom = Smt.atom_ge smt time.(e.dst) time.(e.src) bound in
                  Sat.add_clause sat [ Sat.negate bu; Sat.negate bv; atom ]
                end)
              b.(e.dst))
          b.(e.src))
    (Dfg.edges dfg);
  let rec extract_loop k =
    if k <= 0 then None
    else begin
      match Smt.solve ~max_rounds:400 ~max_conflicts:200_000 ~should_stop smt with
      | Smt.Unsat_ | Smt.Unknown_ -> None
      | Smt.Sat_ ->
          let z = Smt.int_value smt zero in
          let binding =
            Array.init n (fun v ->
                let pe =
                  List.fold_left (fun acc (pe, l) -> if Sat.value sat l then pe else acc) (-1) b.(v)
                in
                (pe, Smt.int_value smt time.(v) - z))
          in
          (* clamp times into [0, horizon): the IDL model is shift-invariant *)
          let tmin = Array.fold_left (fun acc (_, t) -> min acc t) max_int binding in
          let binding = Array.map (fun (pe, t) -> (pe, t - min tmin 0)) binding in
          (match Finalize.of_binding ~obs p ~ii binding with
          | Some m -> Some m
          | None ->
              (* block this exact placement and try again *)
              let blocking =
                Array.to_list b
                |> List.concat_map (fun bs ->
                       List.filter_map
                         (fun (_, l) -> if Sat.value sat l then Some (Sat.negate l) else None)
                         bs)
              in
              Sat.add_clause sat blocking;
              extract_loop (k - 1))
    end
  in
  (* up to six placements, each blocked when it fails to route *)
  let result = extract_loop 6 in
  flush_stats obs smt;
  result

let mapper =
  Mapper.make ~name:"smt" ~citation:"Donovick et al. [44]"
    ~scope:Taxonomy.Temporal_mapping ~approach:Taxonomy.Exact_smt
    (fun p _rng dl obs ->
      let note = "difference-logic schedule + propositional placement (restricted routing)" in
      let should_stop = Deadline.should_stop dl in
      match p.kind with
      | Problem.Spatial -> Mapper.outcome ~attempts:0 ~note None
      | Problem.Temporal _ when Dfg.node_count p.dfg > Ocgra_arch.Cgra.pe_count p.cgra ->
          (* restricted routing caps the op count at the PE count *)
          Mapper.outcome ~attempts:0 ~note None
      | Problem.Temporal { max_ii; _ } ->
          let s =
            Mapper.sweep ~max_ii dl p (fun ii ->
                Mapper.mapped_or_gave_up
                  (Ocgra_obs.Ctx.span obs ~cat:"smt" (Printf.sprintf "smt:ii=%d" ii) (fun () ->
                       try_ii p ~ii ~should_stop ~obs)))
          in
          Mapper.outcome ~proven:s.proven ~attempts:s.steps s.found ~note)
