(* Shared machinery of the spatial meta-heuristic mappers (SA and GA):
   the genome is a placement vector node -> PE; the fitness prices PE
   collisions and wirelength; extraction assigns pipeline stages along
   a topological order and strict-routes with the real router. *)

open Ocgra_dfg
open Ocgra_core
module Rng = Ocgra_util.Rng

let random_genome (p : Problem.t) rng =
  Array.init (Dfg.node_count p.dfg) (fun v ->
      Rng.choose_list rng (Ocgra_arch.Cgra.capable_pes p.cgra (Dfg.op p.dfg v)))

(* Placement cost: collisions dominate, then wirelength. *)
let genome_cost (p : Problem.t) hop_table genome =
  let npe = Ocgra_arch.Cgra.pe_count p.cgra in
  let usage = Array.make npe 0 in
  Array.iter (fun pe -> usage.(pe) <- usage.(pe) + 1) genome;
  let collisions = Array.fold_left (fun acc c -> acc + max 0 (c - 1)) 0 usage in
  let wire = ref 0 in
  List.iter
    (fun (e : Dfg.edge) ->
      let h = hop_table.(genome.(e.src)).(genome.(e.dst)) in
      if h >= Ocgra_arch.Cgra.unreachable then wire := !wire + 1000
      else wire := !wire + max 0 (h - 1))
    (Dfg.edges p.dfg);
  (1000 * collisions) + !wire

(* Strict extraction: fixed PEs from the genome, pipeline stages chosen
   greedily with the real router, at most eight cycles past each
   node's earliest start. *)
let extract (p : Problem.t) genome =
  let state = Place_route.create ~ws:(Route.workspace p.cgra) p ~ii:1 in
  let near = Place_route.near p in
  let order = Ocgra_graph.Topo.sort_exn (Dfg.to_digraph p.dfg) in
  let ok =
    List.for_all
      (fun v ->
        let pe = genome.(v) in
        Place_route.gather state near v;
        let est = Place_route.est near pe and lst = Place_route.lst near pe in
        let upper = min lst (est + 8) in
        let rec try_time t =
          t <= upper && (Place_route.place state v ~pe ~time:t || try_time (t + 1))
        in
        est <= lst && try_time est)
      order
  in
  if ok then Place_route.to_mapping state else None

let mutate (p : Problem.t) rng genome =
  let g = Array.copy genome in
  let v = Rng.int rng (Array.length g) in
  g.(v) <- Rng.choose_list rng (Ocgra_arch.Cgra.capable_pes p.cgra (Dfg.op p.dfg v));
  g

let crossover rng a b =
  let n = Array.length a in
  let cut = Rng.int rng n in
  Array.init n (fun i -> if i < cut then a.(i) else b.(i))
