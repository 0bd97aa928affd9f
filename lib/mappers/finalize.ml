(* Turn a bare binding (every node already assigned a (PE, cycle)) into
   a full mapping by strict-routing every dependence.  The solver-based
   mappers (SA, GA, SAT, CP, ILP, SMT) decide bindings; this is their
   common routing back-end.  Nodes are placed in topological order so
   each edge is routed as soon as both endpoints exist. *)

open Ocgra_core

let of_binding ?obs (p : Problem.t) ~ii (binding : (int * int) array) =
  let state = Place_route.create ~ws:(Route.workspace p.cgra) p ~ii in
  let order = Ocgra_graph.Topo.sort_exn (Ocgra_dfg.Dfg.to_digraph p.dfg) in
  let ok =
    List.for_all
      (fun v ->
        let pe, time = binding.(v) in
        Place_route.place state v ~pe ~time)
      order
  in
  match Place_route.to_mapping state with
  | Some m when ok -> Some m
  | _ -> (
      (* sequential strict routing failed: negotiate all routes at once,
         if the binding alone is legal *)
      match Occupancy.of_binding p ~ii binding with
      | Some occ -> Pathfinder.route_all ?obs p occ binding ~max_iters:12
      | None -> None)
