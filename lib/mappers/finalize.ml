(* Turn a bare binding (every node already assigned a (PE, cycle)) into
   a full mapping by strict-routing every dependence.  The solver-based
   mappers (SA, GA, SAT, CP, ILP, SMT) decide bindings; this is their
   common routing back-end.  Nodes are placed in topological order so
   each edge is routed as soon as both endpoints exist. *)

open Ocgra_core

(* Node placement legality alone (capability + FU slot exclusivity),
   without routing. *)
let binding_legal (p : Problem.t) ~ii (binding : (int * int) array) =
  let slots = Hashtbl.create 32 in
  let ok = ref true in
  Array.iteri
    (fun v (pe, time) ->
      if
        pe < 0
        || pe >= Ocgra_arch.Cgra.pe_count p.cgra
        || time < 0
        || not (Ocgra_arch.Cgra.supports p.cgra pe (Ocgra_dfg.Dfg.op p.dfg v))
      then ok := false
      else begin
        let key = (pe, ((time mod ii) + ii) mod ii) in
        if Hashtbl.mem slots key then ok := false else Hashtbl.replace slots key ()
      end)
    binding;
  !ok

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
  | _ ->
      (* sequential strict routing failed: negotiate all routes at once *)
      if binding_legal p ~ii binding then
        Pathfinder.route_all ?obs p ~ii binding ~max_iters:12
      else None
