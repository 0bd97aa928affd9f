(* Data-flow graph with loop-carried edge distances.

   Nodes are operations; an edge (src, dst, port, dist) says operand
   [port] of [dst] in iteration [i] is the value produced by [src] in
   iteration [i - dist].  dist = 0 edges are ordinary intra-iteration
   data dependences; dist >= 1 edges are the loop recurrences that
   bound the initiation interval from below (RecMII). *)

type node = { id : int; op : Op.t; name : string }
type edge = { src : int; dst : int; port : int; dist : int }

type t = {
  mutable nodes : node array;
  mutable n : int;
  mutable edges_rev : edge list; (* reversed insertion order *)
  mutable n_edges : int;
}

let create () = { nodes = Array.make 8 { id = 0; op = Op.Nop; name = "" }; n = 0; edges_rev = []; n_edges = 0 }

let node_count t = t.n
let edge_count t = t.n_edges

let add ?name t op =
  if t.n = Array.length t.nodes then begin
    let bigger = Array.make (2 * t.n) t.nodes.(0) in
    Array.blit t.nodes 0 bigger 0 t.n;
    t.nodes <- bigger
  end;
  let id = t.n in
  let name = match name with Some s -> s | None -> Printf.sprintf "n%d" id in
  t.nodes.(id) <- { id; op; name };
  t.n <- t.n + 1;
  id

let node t id =
  if id < 0 || id >= t.n then invalid_arg "Dfg.node: id out of range";
  t.nodes.(id)

let op t id = (node t id).op
let name t id = (node t id).name

let add_edge ?(dist = 0) ?(port = 0) t ~src ~dst =
  if src < 0 || src >= t.n then invalid_arg "Dfg.add_edge: src out of range";
  if dst < 0 || dst >= t.n then invalid_arg "Dfg.add_edge: dst out of range";
  if dist < 0 then invalid_arg "Dfg.add_edge: negative distance";
  t.edges_rev <- { src; dst; port; dist } :: t.edges_rev;
  t.n_edges <- t.n_edges + 1

let edges t = List.rev t.edges_rev
let iter_edges f t = List.iter f (edges t)

let in_edges t id = List.filter (fun e -> e.dst = id) (edges t)
let out_edges t id = List.filter (fun e -> e.src = id) (edges t)

let iter_nodes f t =
  for i = 0 to t.n - 1 do
    f t.nodes.(i)
  done

let fold_nodes f t acc =
  let acc = ref acc in
  iter_nodes (fun nd -> acc := f nd !acc) t;
  !acc

(* Structural well-formedness: correct arity, one producer per input
   port, ports in range. Returns the list of problems (empty = ok). *)
let validate t =
  let problems = ref [] in
  let add_problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let in_ports = Hashtbl.create 64 in
  iter_edges
    (fun e ->
      let key = (e.dst, e.port) in
      (match Hashtbl.find_opt in_ports key with
      | Some _ -> add_problem "node %d port %d has multiple producers" e.dst e.port
      | None -> Hashtbl.add in_ports key e.src);
      let needed = Op.arity (op t e.dst) in
      if e.port < 0 || e.port >= needed then
        add_problem "node %d (%s) given operand on port %d but arity is %d" e.dst
          (Op.to_string (op t e.dst))
          e.port needed)
    t;
  iter_nodes
    (fun nd ->
      let needed = Op.arity nd.op in
      for p = 0 to needed - 1 do
        if not (Hashtbl.mem in_ports (nd.id, p)) then
          add_problem "node %d (%s) is missing operand on port %d" nd.id (Op.to_string nd.op) p
      done)
    t;
  List.rev !problems

(* Digraph view over the intra-iteration (dist = 0) edges, with edge
   weight = producer latency; the basis of ASAP and critical path. *)
let to_digraph t =
  let g = Ocgra_graph.Digraph.create ~capacity:(max 1 t.n) () in
  ignore (Ocgra_graph.Digraph.add_nodes g t.n);
  iter_edges
    (fun e ->
      if e.dist = 0 then
        Ocgra_graph.Digraph.add_edge ~weight:(Op.latency (op t e.src)) g e.src e.dst)
    t;
  g

let is_acyclic t = Ocgra_graph.Topo.is_dag (to_digraph t)

(* Earliest start times honouring dist = 0 dependences. *)
let asap t = Ocgra_graph.Topo.longest_from_sources (to_digraph t)

let critical_path t = Ocgra_graph.Topo.critical_path (to_digraph t)

(* Recurrence-constrained minimum initiation interval.

   An II is infeasible iff some dependence cycle has total latency
   greater than II times its total distance; equivalently the graph
   with edge weights (latency src - II * dist) has a positive cycle.
   We scan II upward and test with Bellman-Ford-style relaxation. *)
let rec_mii t =
  let has_positive_cycle ii =
    let n = t.n in
    let dist_arr = Array.make n 0 in
    let edges = edges t in
    let weight e = Op.latency (op t e.src) - (ii * e.dist) in
    let changed = ref true in
    let rounds = ref 0 in
    while !changed && !rounds <= n do
      changed := false;
      incr rounds;
      List.iter
        (fun e ->
          let cand = dist_arr.(e.src) + weight e in
          if cand > dist_arr.(e.dst) then begin
            dist_arr.(e.dst) <- cand;
            changed := true
          end)
        edges
    done;
    !changed
  in
  let max_ii = 1 + fold_nodes (fun nd acc -> acc + Op.latency nd.op) t 0 in
  let rec search ii = if ii >= max_ii || not (has_positive_cycle ii) then ii else search (ii + 1) in
  search 1

let to_dot ?(name = "dfg") t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  iter_nodes
    (fun nd ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s: %s\"];\n" nd.id nd.name (Op.to_string nd.op)))
    t;
  iter_edges
    (fun e ->
      let attrs = if e.dist > 0 then Printf.sprintf " [style=dashed,label=\"d%d\"]" e.dist else "" in
      Buffer.add_string buf (Printf.sprintf "  n%d -> n%d%s;\n" e.src e.dst attrs))
    t;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* Convenience builders used throughout kernels and tests. *)
let const t c = add t (Op.Const c)
let input t s = add ~name:s t (Op.Input s)
let output t s v =
  let o = add ~name:s t (Op.Output s) in
  add_edge t ~src:v ~dst:o ~port:0;
  o

let binop t b x y =
  let v = add t (Op.Binop b) in
  add_edge t ~src:x ~dst:v ~port:0;
  add_edge t ~src:y ~dst:v ~port:1;
  v

let unop t op x =
  let v = add t op in
  add_edge t ~src:x ~dst:v ~port:0;
  v

let select t c a b =
  let v = add t Op.Select in
  add_edge t ~src:c ~dst:v ~port:0;
  add_edge t ~src:a ~dst:v ~port:1;
  add_edge t ~src:b ~dst:v ~port:2;
  v

let load t arr idx =
  let v = add t (Op.Load arr) in
  add_edge t ~src:idx ~dst:v ~port:0;
  v

let store t arr idx value =
  let v = add t (Op.Store arr) in
  add_edge t ~src:idx ~dst:v ~port:0;
  add_edge t ~src:value ~dst:v ~port:1;
  v
