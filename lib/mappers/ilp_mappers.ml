(* ILP-based mappers, solved by the in-tree simplex + branch & bound.

   Three formulations matching the three ILP cells of Table I:

   - [spatial]: architecture-agnostic spatial binding in the spirit of
     Chin & Anderson [34]: assignment binaries w[v][p] with pairwise
     distance caps on dependent operations; pipeline stages and routes
     are then derived by the strict router (lazy routing).
   - [temporal]: joint binding+scheduling in the spirit of [41]:
     time-indexed x[v][p][t] with FU-slot capacity rows and
     nearest-neighbour placement of dependent ops, as the early optimal
     formulations assumed; lazy strict routing on top.
   - [schedule]: scheduling-only in the spirit of [15], [53]: the
     binding comes from a heuristic; the ILP re-times all operations
     (time-indexed, modulo resource rows), then routes strictly. *)

open Ocgra_dfg
open Ocgra_core
module Model = Ocgra_ilp.Model
module Lp = Ocgra_ilp.Lp
module Rng = Ocgra_util.Rng

(* Per-LP-solve time budget on the monotonic clock, composed with the
   caller's deadline/cancellation signal (the ILP core keeps no clock
   of its own).  Built at the call site so each solve gets a fresh
   window. *)
let bounded ~seconds should_stop =
  let dl = Deadline.after ~seconds in
  fun () -> should_stop () || Deadline.expired dl

(* Flush the B&B core's tallies after each solve; the node loop itself
   stays instrumentation-free. *)
let flush_stats obs (s : Ocgra_ilp.Ilp.stats) =
  Ocgra_obs.Ctx.add obs "ilp.nodes" s.nodes;
  Ocgra_obs.Ctx.add obs "ilp.lp_solves" s.lp_solves;
  Ocgra_obs.Ctx.add obs "ilp.pruned" s.pruned;
  Ocgra_obs.Ctx.add obs "ilp.improved" s.improved;
  Ocgra_obs.Ctx.set_max obs "ilp.max_depth" s.max_depth;
  Array.iteri (fun d k -> Ocgra_obs.Ctx.observe_n obs "ilp.node_depth" d k) s.depth_counts

(* ---------- spatial ---------- *)

let spatial_solve (p : Problem.t) rng ~distance_cap ~noise ~should_stop ~obs =
  let n = Dfg.node_count p.dfg in
  let hop_table = Ocgra_arch.Cgra.hop_table p.cgra in
  let m = Model.create ~maximize:false () in
  (* at II = 1 a dead slot 0 removes the whole cell *)
  let usable v =
    List.filter
      (fun pe -> Ocgra_arch.Cgra.slot_ok p.cgra ~pe ~ii:1 ~time:0)
      (Ocgra_arch.Cgra.capable_pes p.cgra (Dfg.op p.dfg v))
  in
  let w = Array.init n (fun v -> List.map (fun pe -> (pe, Model.binary m)) (usable v)) in
  (* each op exactly one PE *)
  Array.iter (fun ws -> Model.add_constraint m (List.map (fun (_, x) -> (1.0, x)) ws) Lp.Eq 1.0) w;
  (* each PE at most one op *)
  let npe = Ocgra_arch.Cgra.pe_count p.cgra in
  for pe = 0 to npe - 1 do
    let users =
      Array.to_list w |> List.concat_map (fun ws -> List.filter (fun (q, _) -> q = pe) ws)
    in
    if List.length users > 1 then
      Model.add_constraint m (List.map (fun (_, x) -> (1.0, x)) users) Lp.Le 1.0
  done;
  (* dependent ops must sit within the distance cap *)
  List.iter
    (fun (e : Dfg.edge) ->
      if e.src <> e.dst then
        List.iter
          (fun (pu, xu) ->
            List.iter
              (fun (pv, xv) ->
                if hop_table.(pu).(pv) > distance_cap then
                  Model.add_constraint m [ (1.0, xu); (1.0, xv) ] Lp.Le 1.0)
              w.(e.dst))
          w.(e.src))
    (Dfg.edges p.dfg);
  (* random objective noise to diversify lazy-routing retries *)
  let obj =
    Array.to_list w
    |> List.concat_map (fun ws ->
           List.map (fun (_, x) -> (float_of_int (Rng.int rng noise) /. 100.0, x)) ws)
  in
  Model.set_objective m obj;
  let outcome, values, stats =
    Model.solve ~max_nodes:500 ~should_stop:(bounded ~seconds:1.5 should_stop) m
  in
  flush_stats obs stats;
  match (outcome, values) with
  | (Model.Optimal _ | Model.Feasible _), Some values ->
      let genome = Array.make n (-1) in
      Array.iteri
        (fun v ws -> List.iter (fun (pe, x) -> if values.(x) = 1 then genome.(v) <- pe) ws)
        w;
      if Array.for_all (fun pe -> pe >= 0) genome then Some genome else None
  | _ -> None

let spatial =
  Mapper.make ~name:"ilp-spatial" ~citation:"Chin & Anderson [34]; Yoon et al. [23]; Nowatzki et al. [35]"
    ~scope:Taxonomy.Spatial_mapping ~approach:Taxonomy.Exact_ilp
    (fun p rng dl obs ->
      let should_stop = Deadline.should_stop dl in
      let attempts = ref 0 in
      let try_cap cap i =
        incr attempts;
        match
          Ocgra_obs.Ctx.span obs ~cat:"ilp" (Printf.sprintf "ilp-spatial:cap=%d" cap) (fun () ->
              spatial_solve p rng ~distance_cap:cap
                ~noise:(if i = 0 then 1 else 50)
                ~should_stop ~obs)
        with
        | None -> Mapper.Refuted (* infeasible at this cap: escalate *)
        | Some genome -> Mapper.mapped_or_gave_up (Spatial_common.extract p genome)
      in
      (* up to three solves per distance cap (the first noise-free),
         then a wider cap; an infeasible cap escalates at once *)
      let rec caps cap =
        if cap > 3 || Deadline.expired dl then None
        else
          match Mapper.tries 3 dl (try_cap cap) with
          | Some m -> Some m
          | None -> caps (cap + 1)
      in
      let m = caps 1 in
      Mapper.outcome ~attempts:!attempts m ~note:"assignment ILP with distance caps, lazy routing")

(* ---------- joint temporal (small arrays) ---------- *)

let temporal_solve (p : Problem.t) rng ~ii ~win ~noise ~should_stop ~obs =
  let dfg = p.dfg in
  let n = Dfg.node_count dfg in
  let hop_table = Ocgra_arch.Cgra.hop_table p.cgra in
  let asap = Dfg.asap dfg in
  let m = Model.create ~maximize:false () in
  (* x[v][(pe,t)] *)
  let cands =
    Array.init n (fun v ->
        List.concat_map
          (fun pe ->
            List.init win (fun k -> asap.(v) + k)
            |> List.filter (fun t -> Ocgra_arch.Cgra.slot_ok p.cgra ~pe ~ii ~time:t)
            |> List.map (fun t -> (pe, t, Model.binary m)))
          (Ocgra_arch.Cgra.capable_pes p.cgra (Dfg.op dfg v)))
  in
  Array.iter
    (fun cs -> Model.add_constraint m (List.map (fun (_, _, x) -> (1.0, x)) cs) Lp.Eq 1.0)
    cands;
  (* FU slot capacity *)
  let npe = Ocgra_arch.Cgra.pe_count p.cgra in
  for pe = 0 to npe - 1 do
    for slot = 0 to ii - 1 do
      let users =
        Array.to_list cands
        |> List.concat_map (List.filter (fun (q, t, _) -> q = pe && t mod ii = slot))
      in
      if List.length users > 1 then
        Model.add_constraint m (List.map (fun (_, _, x) -> (1.0, x)) users) Lp.Le 1.0
    done
  done;
  (* placement aggregates for adjacency *)
  let w =
    Array.init n (fun v ->
        List.map
          (fun pe ->
            let wx = Model.binary m in
            let terms = List.filter_map (fun (q, _, x) -> if q = pe then Some (1.0, x) else None) cands.(v) in
            Model.add_constraint m ((-1.0, wx) :: terms) Lp.Eq 0.0;
            (pe, wx))
          (Ocgra_arch.Cgra.capable_pes p.cgra (Dfg.op dfg v)))
  in
  (* dependent ops nearest-neighbour; timing via time aggregates *)
  let time_of =
    Array.init n (fun v ->
        List.map (fun (_, t, x) -> (float_of_int t, x)) cands.(v))
  in
  List.iter
    (fun (e : Dfg.edge) ->
      let lat = Op.latency (Dfg.op dfg e.src) in
      if e.src <> e.dst then begin
        List.iter
          (fun (pu, xu) ->
            List.iter
              (fun (pv, xv) ->
                if hop_table.(pu).(pv) > 1 then
                  Model.add_constraint m [ (1.0, xu); (1.0, xv) ] Lp.Le 1.0)
              w.(e.dst))
          w.(e.src)
      end;
      (* T_v + dist*ii - T_u - lat >= 0 *)
      Model.add_constraint m
        (time_of.(e.dst) @ List.map (fun (c, x) -> (-.c, x)) time_of.(e.src))
        Lp.Ge
        (float_of_int (lat - (e.dist * ii))))
    (Dfg.edges dfg);
  (* objective: compact schedule + noise *)
  let obj =
    Array.to_list time_of |> List.concat
    |> List.map (fun (c, x) -> (c +. (float_of_int (Rng.int rng noise) /. 100.0), x))
  in
  Model.set_objective m obj;
  let outcome, values, stats =
    Model.solve ~max_nodes:600 ~should_stop:(bounded ~seconds:2.0 should_stop) m
  in
  flush_stats obs stats;
  match (outcome, values) with
  | (Model.Optimal _ | Model.Feasible _), Some values ->
      let binding = Array.make n (-1, -1) in
      Array.iteri
        (fun v cs -> List.iter (fun (pe, t, x) -> if values.(x) = 1 then binding.(v) <- (pe, t)) cs)
        cands;
      if Array.for_all (fun (pe, _) -> pe >= 0) binding then Some binding else None
  | _ -> None

let temporal =
  Mapper.make ~name:"ilp-temporal" ~citation:"Brenner et al. [41]; Guo et al. [15]"
    ~scope:Taxonomy.Temporal_mapping ~approach:Taxonomy.Exact_ilp
    (fun p rng dl obs ->
      let note = "time-indexed ILP, nearest-neighbour placement, lazy routing" in
      match p.kind with
      | Problem.Spatial -> Mapper.outcome ~attempts:0 ~note None
      | Problem.Temporal { max_ii; _ } ->
          (* the joint ILP is meant for small arrays and kernels: 12 s at
             most whatever the caller's budget, a window of II + 3
             cycles, and two solves per II (the second with a noisy
             objective) *)
          let attempts = ref 0 in
          let dl = Deadline.sooner dl (Deadline.after ~seconds:12.0) in
          let should_stop = Deadline.should_stop dl in
          let try_ii ii i =
            incr attempts;
            match
              Ocgra_obs.Ctx.span obs ~cat:"ilp" (Printf.sprintf "ilp-temporal:ii=%d" ii)
                (fun () ->
                  temporal_solve p rng ~ii ~win:(ii + 3)
                    ~noise:(if i = 0 then 1 else 80)
                    ~should_stop ~obs)
            with
            | None -> Mapper.Refuted (* no solution at this II: stop retrying *)
            | Some binding -> Mapper.mapped_or_gave_up (Finalize.of_binding ~obs p ~ii binding)
          in
          let s =
            Mapper.sweep ~max_ii dl p (fun ii ->
                Mapper.mapped_or_gave_up (Mapper.tries 2 dl (try_ii ii)))
          in
          Mapper.outcome ~proven:s.proven ~attempts:!attempts s.found ~note)

(* ---------- scheduling-only ---------- *)

(* Re-time a fixed binding with a time-indexed ILP, then route. *)
let schedule_solve (p : Problem.t) ~ii ~win ~should_stop ~obs (pes : int array) =
  let dfg = p.dfg in
  let n = Dfg.node_count dfg in
  let hop_table = Ocgra_arch.Cgra.hop_table p.cgra in
  let asap = Dfg.asap dfg in
  let m = Model.create ~maximize:false () in
  let cands =
    Array.init n (fun v ->
        List.init win (fun k -> asap.(v) + k)
        |> List.filter (fun t -> Ocgra_arch.Cgra.slot_ok p.cgra ~pe:pes.(v) ~ii ~time:t)
        |> List.map (fun t -> (t, Model.binary m)))
  in
  Array.iter (fun cs -> Model.add_constraint m (List.map (fun (_, x) -> (1.0, x)) cs) Lp.Eq 1.0) cands;
  (* FU slot capacity per (pe, slot) among nodes sharing the PE *)
  let groups = Hashtbl.create 16 in
  Array.iteri
    (fun v pe ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt groups pe) in
      Hashtbl.replace groups pe (v :: cur))
    pes;
  Hashtbl.iter
    (fun _pe vs ->
      if List.length vs > 1 then
        for slot = 0 to ii - 1 do
          let users =
            List.concat_map (fun v -> List.filter (fun (t, _) -> t mod ii = slot) cands.(v)) vs
          in
          if List.length users > 1 then
            Model.add_constraint m (List.map (fun (_, x) -> (1.0, x)) users) Lp.Le 1.0
        done)
    groups;
  (* timing with the true hop distances of the fixed binding *)
  List.iter
    (fun (e : Dfg.edge) ->
      let lat = Op.latency (Dfg.op dfg e.src) in
      let needed = max 0 (hop_table.(pes.(e.src)).(pes.(e.dst)) - 1) in
      let tu = List.map (fun (t, x) -> (float_of_int t, x)) cands.(e.src) in
      let tv = List.map (fun (t, x) -> (float_of_int t, x)) cands.(e.dst) in
      Model.add_constraint m
        (tv @ List.map (fun (c, x) -> (-.c, x)) tu)
        Lp.Ge
        (float_of_int (lat + needed - (e.dist * ii))))
    (Dfg.edges dfg);
  Model.set_objective m (Array.to_list cands |> List.concat |> List.map (fun (t, x) -> (float_of_int t, x)));
  let outcome, values, stats =
    Model.solve ~max_nodes:800 ~should_stop:(bounded ~seconds:2.0 should_stop) m
  in
  flush_stats obs stats;
  match (outcome, values) with
  | (Model.Optimal _ | Model.Feasible _), Some values ->
      let times = Array.make n (-1) in
      Array.iteri (fun v cs -> List.iter (fun (t, x) -> if values.(x) = 1 then times.(v) <- t) cs) cands;
      if Array.for_all (fun t -> t >= 0) times then Some times else None
  | _ -> None

let schedule =
  Mapper.make ~name:"ilp-schedule" ~citation:"Guo et al. [15]; Mu et al. [53]"
    ~scope:Taxonomy.Scheduling_only ~approach:Taxonomy.Exact_ilp
    (fun p rng dl obs ->
      let note = "heuristic binding + time-indexed ILP re-scheduling" in
      match p.kind with
      | Problem.Spatial -> Mapper.outcome ~attempts:0 ~note None
      | Problem.Temporal _ -> (
          (* binding skeleton from the constructive heuristic *)
          match Constructive.map ~restarts:8 ~deadline:dl ~obs p rng with
          | None, attempts, _ -> Mapper.outcome ~attempts ~note None
          | Some base, attempts, _ ->
              let ii = base.Mapping.ii in
              let pes = Array.map fst base.Mapping.binding in
              let times =
                Ocgra_obs.Ctx.span obs ~cat:"ilp" (Printf.sprintf "ilp-schedule:ii=%d" ii)
                  (fun () ->
                    schedule_solve p ~ii ~win:(ii + 4) ~should_stop:(Deadline.should_stop dl) ~obs
                      pes)
              in
              (* keep the heuristic schedule when the ILP finds nothing routable *)
              let retimed =
                Option.bind times (fun times ->
                    Finalize.of_binding ~obs p ~ii (Array.mapi (fun v t -> (pes.(v), t)) times))
              in
              Mapper.outcome ~attempts:(attempts + 1) ~note
                (Some (Option.value retimed ~default:base))))
