(* Constraint-programming temporal mapping ([43] Raffin et al., who
   modelled scheduling+binding+routing as a CSP solved by constraint
   propagation).

   Model, per candidate II:
     place_v : capable PEs        time_v : [0, T)
     pe_slot_v = place_v * II + (time_v mod II), channelled through a
     ternary table constraint, with all_different(pe_slot) for FU
     exclusivity; each dependence gets a distance variable channelled
     from (place_u, place_v) by a table over the hop matrix, plus the
     linear timing constraint t_v + dist*II >= t_u + lat + (hops - 1).

   Routing resources beyond the distance bound are not in the CSP (the
   engine has no cumulative constraint); the solution is strict-routed
   and, on failure, the search re-runs with a randomised value order —
   the lazy-routing loop. *)

open Ocgra_dfg
open Ocgra_core
module Cp = Ocgra_cp.Solver
module Rng = Ocgra_util.Rng

(* Flush the solver's native tallies after each search; the
   propagation queue itself stays instrumentation-free. *)
let flush_stats obs cp =
  let failures, decisions, propagations = Cp.stats cp in
  Ocgra_obs.Ctx.add obs "cp.failures" failures;
  Ocgra_obs.Ctx.add obs "cp.decisions" decisions;
  Ocgra_obs.Ctx.add obs "cp.propagations" propagations;
  Array.iteri (fun d k -> Ocgra_obs.Ctx.observe_n obs "cp.node_depth" d k) (Cp.dist_depth cp)

let try_ii (p : Problem.t) rng ~ii ~max_failures ~routing_retries ~should_stop ~obs =
  let dfg = p.dfg and cgra = p.cgra in
  let npe = Ocgra_arch.Cgra.pe_count cgra in
  let n = Dfg.node_count dfg in
  let horizon = min (Problem.max_time p) (Dfg.critical_path dfg + (2 * ii) + 6) in
  let hop_table = Ocgra_arch.Cgra.hop_table cgra in
  let build () =
    let cp = Cp.create () in
    let place =
      Array.init n (fun v -> Cp.new_var cp (Ocgra_arch.Cgra.capable_pes cgra (Dfg.op dfg v)))
    in
    let time = Array.init n (fun _ -> Cp.range_var cp 0 (horizon - 1)) in
    let slot = Array.init n (fun _ -> Cp.range_var cp 0 (ii - 1)) in
    (* channel slot_v = time_v mod ii *)
    Array.iteri
      (fun v tv ->
        let tuples =
          List.concat_map
            (fun t -> [ [| t; t mod ii |] ])
            (List.init horizon Fun.id)
        in
        Cp.table cp [ tv; slot.(v) ] tuples)
      time;
    (* channel pe_slot_v = place_v * ii + slot_v, then all_different *)
    let pe_slot = Array.init n (fun _ -> Cp.range_var cp 0 ((npe * ii) - 1)) in
    Array.iteri
      (fun v _ ->
        (* dead FU slots are simply absent from the channel table, so
           fault constraints hold by construction *)
        let tuples = ref [] in
        for pe = 0 to npe - 1 do
          for s = 0 to ii - 1 do
            if Ocgra_arch.Cgra.slot_ok cgra ~pe ~ii ~time:s then
              tuples := [| pe; s; (pe * ii) + s |] :: !tuples
          done
        done;
        Cp.table cp [ place.(v); slot.(v); pe_slot.(v) ] !tuples)
      pe_slot;
    Cp.all_different cp (Array.to_list pe_slot);
    (* dependence timing with hop-distance lower bounds *)
    List.iter
      (fun (e : Dfg.edge) ->
        if e.src <> e.dst then begin
          let lat = Op.latency (Dfg.op dfg e.src) in
          let maxhop = npe in
          let duv = Cp.range_var cp 0 maxhop in
          let tuples = ref [] in
          for pu = 0 to npe - 1 do
            for pv = 0 to npe - 1 do
              let h = hop_table.(pu).(pv) in
              if h < Ocgra_graph.Paths.unreachable then
                tuples := [| pu; pv; max 0 (h - 1) |] :: !tuples
            done
          done;
          Cp.table cp [ place.(e.src); place.(e.dst); duv ] !tuples;
          (* time_u + lat + duv - time_v <= dist * ii *)
          Cp.linear_le cp
            [ (1, time.(e.src)); (1, duv); (-1, time.(e.dst)) ]
            ((e.dist * ii) - lat)
        end
        else begin
          (* self edge: lat <= dist * ii *)
          let lat = Op.latency (Dfg.op dfg e.src) in
          if lat > e.dist * ii then Cp.linear_le cp [ (1, time.(e.src)) ] (-1)
        end)
      (Dfg.edges dfg);
    (cp, place, time)
  in
  let rec retry k =
    if k <= 0 then None
    else begin
      let cp, place, time = build () in
      let salt = Rng.int rng 1_000_000 in
      let value_order v (values : int list) =
        (* randomised but deterministic per retry *)
        let scored = List.map (fun x -> (((x + v) * 2654435761) lxor salt) land 0xFFFF, x) values in
        List.map snd (List.sort compare scored)
      in
      let sol = Cp.solve ~max_failures ~should_stop ~value_order cp in
      flush_stats obs cp;
      match sol with
      | None -> None (* propagation-complete failure: infeasible at this II/horizon *)
      | Some sol ->
          let binding = Array.init n (fun v -> (sol.(place.(v)), sol.(time.(v)))) in
          (match Finalize.of_binding ~obs p ~ii binding with
          | Some m -> Some m
          | None -> retry (k - 1))
    end
  in
  retry routing_retries

let map ?(max_failures = 15_000) ?(routing_retries = 5) ?(deadline = Deadline.none)
    ?(obs = Ocgra_obs.Ctx.off) (p : Problem.t) rng =
  let should_stop = Deadline.should_stop deadline in
  match p.kind with
  | Problem.Spatial -> (None, 0, false)
  | Problem.Temporal { max_ii; _ } ->
      let s =
        Mapper.sweep ~max_ii deadline p (fun ii ->
            Mapper.mapped_or_gave_up
              (Ocgra_obs.Ctx.span obs ~cat:"cp" (Printf.sprintf "cp:ii=%d" ii) (fun () ->
                   try_ii p rng ~ii ~max_failures ~routing_retries ~should_stop ~obs)))
      in
      (s.found, s.steps, s.proven)

let mapper =
  Mapper.make ~name:"cp" ~citation:"Raffin et al. [43]"
    ~scope:Taxonomy.Temporal_mapping ~approach:Taxonomy.Exact_cp
    (fun p rng dl obs ->
      let m, attempts, proven = map ~deadline:dl ~obs p rng in
      Mapper.outcome ~proven ~attempts m ~note:"CSP binding+scheduling, lazy strict routing")
