(* Constructive modulo scheduling with greedy placement and routing —
   the workhorse heuristic in the lineage of iterative modulo
   scheduling and DRESC-style CGRA compilation: nodes are placed in
   priority order at the earliest feasible (PE, cycle), dependences are
   routed immediately, and the whole attempt restarts with a different
   random tie-breaking when it dead-ends.  The II loop starts at the
   MII lower bound, so a success at MII is provably optimal. *)

open Ocgra_dfg
open Ocgra_core
module Rng = Ocgra_util.Rng

let topo_order_by_height rng dfg =
  let g = Dfg.to_digraph dfg in
  let order = Ocgra_graph.Topo.sort_exn g in
  (* priority: longest path to a sink over dist-0 edges (operation
     height), the classic list-scheduling priority *)
  let h = Ocgra_graph.Topo.longest_to_sinks g in
  (* stable-sort a topological order by decreasing height while keeping
     it topological: process by levels *)
  let tiebreak = Array.init (Dfg.node_count dfg) (fun _ -> Rng.int rng 1000) in
  (* levels by ASAP; inside a level, height descending, random ties *)
  let asap = Dfg.asap dfg in
  List.stable_sort
    (fun a b ->
      match compare asap.(a) asap.(b) with
      | 0 -> (
          match compare h.(b) h.(a) with 0 -> compare tiebreak.(a) tiebreak.(b) | c -> c)
      | c -> c)
    order

(* Sum of hop distances from [pe] to every placed neighbour of [v]; a
   centre-distance bias when nothing is placed yet, so early nodes
   cluster and later routes stay short. *)
let proximity (state : Place_route.t) hop_table v pe =
  let dfg = state.problem.dfg in
  let total = ref 0 and neighbours = ref 0 in
  List.iter
    (fun (e : Dfg.edge) ->
      let other = if e.src = v then e.dst else e.src in
      if other <> v && Place_route.is_placed state other then begin
        let po, _ = Place_route.binding_of state other in
        let h = if e.src = v then hop_table.(pe).(po) else hop_table.(po).(pe) in
        if h < Ocgra_graph.Paths.unreachable then begin
          total := !total + h;
          incr neighbours
        end
      end)
    (Dfg.in_edges dfg v @ Dfg.out_edges dfg v);
  if !neighbours > 0 then Some !total else None

(* One placement attempt at a fixed II. *)
let attempt (p : Problem.t) rng ~ii ~time_slack =
  let state = Place_route.create p ~ii in
  let cgra = p.cgra in
  let hop_table = Ocgra_arch.Cgra.hop_table cgra in
  let order = topo_order_by_height rng p.dfg in
  let ok =
    List.for_all
      (fun v ->
        (* candidate (pe, t) pairs ordered by time, then proximity to the
           placed neighbours, then a random tie-break to diversify restarts;
           nodes with no placed neighbour yet (inputs, constants) are
           placed at random so restarts explore different geometries *)
        let candidates =
          List.concat_map
            (fun pe ->
              let est, lst = Place_route.time_window state hop_table v pe in
              if est > lst then []
              else begin
                let prox =
                  match proximity state hop_table v pe with
                  | Some p -> (2 * p) + Rng.int rng 2
                  | None -> Rng.int rng 64
                in
                let upper = min lst (est + time_slack) in
                List.init (upper - est + 1) (fun i -> (est + i, prox, Rng.int rng 16, pe))
              end)
            (Ocgra_arch.Cgra.capable_pes cgra (Dfg.op p.dfg v))
        in
        let candidates = List.sort compare candidates in
        List.exists (fun (t, _, _, pe) -> Place_route.place state v ~pe ~time:t) candidates)
      order
  in
  if ok then Place_route.to_mapping state else None

(* Map at the smallest feasible II with random restarts.  The deadline
   is polled between attempts (each attempt is short), so an expired
   budget surfaces as a clean failure. *)
let map ?(restarts = 8) ?(time_slack = 6) ?(deadline = Deadline.none)
    ?(obs = Ocgra_obs.Ctx.off) (p : Problem.t) rng =
  let attempts = ref 0 in
  let restart ~ii =
    Mapper.tries restarts deadline (fun _ ->
        incr attempts;
        Mapper.mapped_or_gave_up (attempt p rng ~ii ~time_slack))
  in
  let m, at_mii =
    match p.kind with
    | Problem.Spatial -> (restart ~ii:1, true)
    | Problem.Temporal { max_ii; _ } ->
        let s =
          Mapper.sweep ~max_ii deadline p (fun ii -> Mapper.mapped_or_gave_up (restart ~ii))
        in
        (s.found, s.proven)
  in
  Ocgra_obs.Ctx.add obs "constructive.attempts" !attempts;
  (m, !attempts, at_mii)
