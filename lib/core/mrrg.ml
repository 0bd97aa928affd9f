(* The modulo routing resource graph of the FU-hop route model; see mrrg.mli. *)

open Ocgra_arch

type route_model = Fu_hop

let route_model_to_string Fu_hop = "fu-hop"

type t = { cgra : Cgra.t; ii : int }

let make cgra ~ii = { cgra; ii }

let live t ~pe ~time =
  pe >= 0 && pe < Cgra.pe_count t.cgra && Cgra.pe_ok t.cgra pe
  && Cgra.slot_ok t.cgra ~pe ~ii:t.ii ~time

let live_count t =
  let cells = List.init (Cgra.pe_count t.cgra * t.ii) Fun.id in
  List.length (List.filter (fun i -> live t ~pe:(i / t.ii) ~time:(i mod t.ii)) cells)

let host t =
  let g = Ocgra_graph.Digraph.create () in
  let cells = Cgra.pe_count t.cgra * t.ii in
  ignore (Ocgra_graph.Digraph.add_nodes g cells);
  for i = 0 to cells - 1 do
    List.iter
      (fun q -> Ocgra_graph.Digraph.add_edge g i ((q * t.ii) + (((i mod t.ii) + 1) mod t.ii)))
      (Cgra.reachable_in_one t.cgra (i / t.ii))
  done;
  g
