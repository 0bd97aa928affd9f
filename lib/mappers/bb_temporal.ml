(* Branch-and-bound temporal mapping ([42] dnestmap uses B&B; [24] Das
   et al. prune partial solutions stochastically to keep the frontier
   tractable).

   Depth-first search over nodes in priority order; each node branches
   over its feasible (PE, cycle) candidates, placed and routed
   immediately so infeasible branches die at the first unroutable
   dependence.  Two pruning knobs: [beam] keeps only that many
   candidates per node (stochastically sampled, as in [24]), and
   [max_nodes] bounds the search tree. *)

open Ocgra_dfg
open Ocgra_core
module Rng = Ocgra_util.Rng

exception Found of Mapping.t

(* The pruning knobs: candidates kept per node, nodes expanded per II. *)
let beam = 10
let max_nodes = 40_000

(* One bounded search at a fixed II; returns (mapping, nodes expanded). *)
let attempt (p : Problem.t) ws near rng ~ii ~dl =
  let state = Place_route.create ~ws p ~ii in
  let order = Array.of_list (Constructive.topo_order_by_height rng p.dfg) in
  let expanded = ref 0 in
  let rec go i =
    if i = Array.length order then begin
      match Place_route.to_mapping state with Some m -> raise (Found m) | None -> ()
    end
    else begin
      let v = order.(i) in
      Place_route.gather state near v;
      let candidates =
        List.concat_map
          (fun pe ->
            let est = Place_route.est near pe and lst = Place_route.lst near pe in
            let upper = min lst (est + ii + 2) in
            if est > upper then [] else List.init (upper - est + 1) (fun k -> (est + k, pe)))
          (Ocgra_arch.Cgra.capable_pes p.cgra (Dfg.op p.dfg v))
      in
      let candidates = List.sort compare candidates in
      (* stochastic pruning: keep at most [beam] candidates *)
      let candidates =
        if List.length candidates <= beam then candidates
        else begin
          let arr = Array.of_list candidates in
          (* always keep the earliest few, sample the rest *)
          let keep_head = max 1 (beam / 2) in
          let head = Array.to_list (Array.sub arr 0 keep_head) in
          let tail = Array.sub arr keep_head (Array.length arr - keep_head) in
          Rng.shuffle_in_place rng tail;
          head @ Array.to_list (Array.sub tail 0 (beam - keep_head))
        end
      in
      List.iter
        (fun (t, pe) ->
          if !expanded < max_nodes && not (Deadline.expired dl) then begin
            incr expanded;
            if Place_route.place state v ~pe ~time:t then begin
              go (i + 1);
              Place_route.unplace state v
            end
          end)
        candidates
    end
  in
  match go 0 with
  | () -> (None, !expanded)
  | exception Found m -> (Some m, !expanded)

let mapper =
  Mapper.make ~name:"branch-and-bound" ~citation:"Karunaratne et al. [42]; Das et al. [24]"
    ~scope:Taxonomy.Temporal_mapping ~approach:Taxonomy.Exact_bb
    (fun p rng dl obs ->
      let ws = Route.workspace p.cgra and near = Place_route.near p in
      let expanded = ref 0 in
      let m, proven =
        match p.kind with
        | Problem.Spatial ->
            let m, n = attempt p ws near rng ~ii:1 ~dl in
            expanded := n;
            (m, false)
        | Problem.Temporal { max_ii; _ } ->
            let step ii =
              (* a mapping at the MII is optimal whatever the beam pruned *)
              let m, n =
                Ocgra_obs.Ctx.span obs ~cat:"bb" (Printf.sprintf "bb:ii=%d" ii) (fun () ->
                    attempt p ws near rng ~ii ~dl)
              in
              expanded := !expanded + n;
              Mapper.mapped_or_gave_up m
            in
            let s = Mapper.sweep ~max_ii dl p step in
            (s.found, s.proven)
      in
      Ocgra_obs.Ctx.add obs "bb.expanded" !expanded;
      Mapper.outcome ~proven ~attempts:!expanded m
        ~note:"DFS over (PE,cycle) with immediate routing and stochastic pruning")
