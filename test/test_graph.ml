(* Graph algorithm tests: topological sort, cliques and subgraph
   isomorphism, checked against brute force or known answers. *)

module G = Ocgra_graph.Digraph
module Topo = Ocgra_graph.Topo
module Clique = Ocgra_graph.Clique
module Iso = Ocgra_graph.Iso
module Rng = Ocgra_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let random_dag rng ~n ~p =
  let g = G.create () in
  ignore (G.add_nodes g n);
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Rng.float rng 1.0 < p then G.add_edge g i j
    done
  done;
  g

(* ---------- Topo ---------- *)

let qcheck_topo_order_valid =
  QCheck.Test.make ~name:"topological order respects every edge" ~count:200
    QCheck.(pair small_int (int_range 1 20))
    (fun (seed, n) ->
      let g = random_dag (Rng.create seed) ~n ~p:0.3 in
      match Topo.sort g with
      | None -> false
      | Some order ->
          let pos = Array.make n 0 in
          List.iteri (fun i v -> pos.(v) <- i) order;
          List.length order = n
          && List.for_all
               (fun v -> List.for_all (fun e -> pos.(v) < pos.(e.G.dst)) (G.succ_edges g v))
               order)

let test_topo_detects_cycle () =
  let g = G.create () in
  ignore (G.add_nodes g 3);
  G.add_edge g 0 1;
  G.add_edge g 1 2;
  G.add_edge g 2 0;
  checkb "cycle detected" true (Topo.sort g = None);
  checkb "not a dag" false (Topo.is_dag g)

let test_longest_path () =
  (* diamond with a long arm: 0->1->2->4, 0->3->4 with weights *)
  let g = G.create () in
  ignore (G.add_nodes g 5);
  G.add_edge ~weight:2 g 0 1;
  G.add_edge ~weight:2 g 1 2;
  G.add_edge ~weight:2 g 2 4;
  G.add_edge ~weight:1 g 0 3;
  G.add_edge ~weight:1 g 3 4;
  checki "critical path" 6 (Topo.critical_path g);
  let from_src = Topo.longest_from_sources g in
  checki "node 4 depth" 6 from_src.(4);
  let to_sink = Topo.longest_to_sinks g in
  checki "node 0 height" 6 to_sink.(0)

(* ---------- Clique ---------- *)

let brute_max_clique n edges =
  let adj = Array.make_matrix n n false in
  List.iter
    (fun (i, j) ->
      adj.(i).(j) <- true;
      adj.(j).(i) <- true)
    edges;
  let best = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    let members = List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init n Fun.id) in
    let is_clique =
      List.for_all (fun i -> List.for_all (fun j -> i = j || adj.(i).(j)) members) members
    in
    if is_clique then best := max !best (List.length members)
  done;
  !best

let qcheck_clique_vs_brute =
  QCheck.Test.make ~name:"bron-kerbosch matches brute force" ~count:100
    QCheck.(pair small_int (int_range 1 10))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let c = Clique.create n in
      let edges = ref [] in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Rng.float rng 1.0 < 0.5 then begin
            Clique.add_edge c i j;
            edges := (i, j) :: !edges
          end
        done
      done;
      let clique, proven = Clique.maximum c in
      proven && List.length clique = brute_max_clique n !edges)

(* ---------- Iso ---------- *)

let path_graph n =
  let g = G.create () in
  ignore (G.add_nodes g n);
  for i = 0 to n - 2 do
    G.add_edge g i (i + 1)
  done;
  g

let test_iso_path_in_grid () =
  (* a 4-path embeds in a 2x2 grid graph (with both edge directions) *)
  let host = G.create () in
  ignore (G.add_nodes host 4);
  List.iter
    (fun (a, b) ->
      G.add_edge host a b;
      G.add_edge host b a)
    [ (0, 1); (0, 2); (1, 3); (2, 3) ];
  let pattern = path_graph 4 in
  (match Iso.find ~compatible:(fun _ _ -> true) pattern host with
  | Some mapping ->
      checkb "distinct targets" true
        (List.length (List.sort_uniq compare (Array.to_list mapping)) = 4);
      (* every pattern edge realized *)
      for v = 0 to G.node_count pattern - 1 do
        List.iter
          (fun e -> checkb "edge held" true (G.mem_edge host mapping.(v) mapping.(e.G.dst)))
          (G.succ_edges pattern v)
      done
  | None -> Alcotest.fail "expected embedding");
  (* a 5-path cannot embed in 4 nodes *)
  checkb "too big" true (Iso.find ~compatible:(fun _ _ -> true) (path_graph 5) host = None)

let test_iso_respects_compatibility () =
  let host = path_graph 3 and pattern = path_graph 3 in
  (* forbid node 0 of the pattern everywhere: no embedding *)
  checkb "blocked" true (Iso.find ~compatible:(fun p _ -> p <> 0) pattern host = None)

(* A search cut short by its step budget reports [Exhausted], never
   [Absent]: only a complete search proves that no embedding exists. *)
let test_iso_search_verdicts () =
  let any _ _ = true in
  let host = path_graph 4 in
  (match Iso.search ~compatible:any (path_graph 3) host with
  | Iso.Found _, nodes -> checkb "found within the tree" true (nodes >= 4)
  | (Iso.Absent | Iso.Exhausted), _ -> Alcotest.fail "a 3-path embeds in a 4-path");
  checkb "too big is absent" true (fst (Iso.search ~compatible:any (path_graph 5) host) = Iso.Absent);
  (* a 4-path in a 4-node star: no embedding, found by exploring the tree *)
  let star = G.create () in
  ignore (G.add_nodes star 4);
  List.iter (fun leaf -> G.add_edge star 0 leaf) [ 1; 2; 3 ];
  let verdict, nodes = Iso.search ~compatible:any (path_graph 4) star in
  checkb "complete search is absent" true (verdict = Iso.Absent);
  checkb "budget below the tree is exhausted" true
    (Iso.search ~max_steps:(nodes - 1) ~compatible:any (path_graph 4) star = (Iso.Exhausted, nodes - 1));
  checkb "budget at the tree is absent" true
    (Iso.search ~max_steps:nodes ~compatible:any (path_graph 4) star = (Iso.Absent, nodes));
  checkb "find conflates the two" true
    (Iso.find ~max_steps:1 ~compatible:any (path_graph 3) host = None)

(* ---------- Digraph basics ---------- *)

let test_digraph_basics () =
  let g = G.create () in
  let a = G.add_node g and b = G.add_node g in
  G.add_edge g a b;
  G.add_edge g a b;
  checki "parallel edges" 2 (G.edge_count g);
  checki "out degree" 2 (G.out_degree g a);
  Alcotest.(check (list int)) "succ" [ b; b ] (G.succ g a);
  checki "in degree" 2 (G.in_degree g b)

let () =
  Alcotest.run "graph"
    [
      ( "topo",
        [
          QCheck_alcotest.to_alcotest qcheck_topo_order_valid;
          Alcotest.test_case "cycle detection" `Quick test_topo_detects_cycle;
          Alcotest.test_case "longest paths" `Quick test_longest_path;
        ] );
      ("clique", [ QCheck_alcotest.to_alcotest qcheck_clique_vs_brute ]);
      ( "subgraphs",
        [
          Alcotest.test_case "iso path in grid" `Quick test_iso_path_in_grid;
          Alcotest.test_case "iso compatibility" `Quick test_iso_respects_compatibility;
          Alcotest.test_case "iso search verdicts" `Quick test_iso_search_verdicts;
        ] );
      ("digraph", [ Alcotest.test_case "basics" `Quick test_digraph_basics ]);
    ]
