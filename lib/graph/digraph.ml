(* Growable directed graph over dense integer node ids.

   All graph-shaped structures in the framework (DFGs, MRRGs,
   constraint graphs) are instances of this one representation, so the
   algorithm modules (Topo, Paths, Iso) apply uniformly.  Nodes are
   0..n-1; parallel edges are allowed; each edge may carry an integer
   weight (default 1). *)

type edge = { src : int; dst : int; weight : int }

type t = {
  mutable succ : edge list array; (* outgoing edges per node *)
  mutable pred : edge list array; (* incoming edges per node *)
  mutable n : int;
}

let create ?(capacity = 8) () =
  let capacity = max capacity 1 in
  { succ = Array.make capacity []; pred = Array.make capacity []; n = 0 }

let node_count t = t.n

let ensure_capacity t needed =
  let cap = Array.length t.succ in
  if needed > cap then begin
    let cap' = max needed (2 * cap) in
    let succ = Array.make cap' [] and pred = Array.make cap' [] in
    Array.blit t.succ 0 succ 0 t.n;
    Array.blit t.pred 0 pred 0 t.n;
    t.succ <- succ;
    t.pred <- pred
  end

let add_node t =
  ensure_capacity t (t.n + 1);
  let id = t.n in
  t.n <- t.n + 1;
  id

let add_nodes t k =
  let first = t.n in
  ensure_capacity t (t.n + k);
  t.n <- t.n + k;
  first

let check_node t v =
  if v < 0 || v >= t.n then invalid_arg "Digraph: node out of range"

let add_edge ?(weight = 1) t src dst =
  check_node t src;
  check_node t dst;
  let e = { src; dst; weight } in
  t.succ.(src) <- e :: t.succ.(src);
  t.pred.(dst) <- e :: t.pred.(dst)

let succ_edges t v =
  check_node t v;
  t.succ.(v)

let pred_edges t v =
  check_node t v;
  t.pred.(v)

let succ t v = List.rev_map (fun e -> e.dst) (succ_edges t v)
let pred t v = List.rev_map (fun e -> e.src) (pred_edges t v)

let out_degree t v = List.length (succ_edges t v)
let in_degree t v = List.length (pred_edges t v)

let edge_count t =
  let c = ref 0 in
  for v = 0 to t.n - 1 do
    c := !c + List.length t.succ.(v)
  done;
  !c
