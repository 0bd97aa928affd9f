(* Graph algorithm tests: topological sort, SCC, shortest paths,
   matching, cliques, common subgraphs, subgraph isomorphism — each
   checked against brute force on random small graphs. *)

module G = Ocgra_graph.Digraph
module Topo = Ocgra_graph.Topo
module Scc = Ocgra_graph.Scc
module Paths = Ocgra_graph.Paths
module Matching = Ocgra_graph.Matching
module Clique = Ocgra_graph.Clique
module Mcs = Ocgra_graph.Mcs
module Iso = Ocgra_graph.Iso
module Rng = Ocgra_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let random_digraph rng ~n ~p =
  let g = G.create () in
  ignore (G.add_nodes g n);
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && Rng.float rng 1.0 < p then G.add_edge g i j
    done
  done;
  g

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
          && G.fold_edges (fun e acc -> acc && pos.(e.G.src) < pos.(e.G.dst)) g true)

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

(* ---------- Scc ---------- *)

let test_scc_known () =
  (* two cycles joined by a bridge plus an isolated node *)
  let g = G.create () in
  ignore (G.add_nodes g 6);
  G.add_edge g 0 1;
  G.add_edge g 1 0;
  G.add_edge g 1 2;
  G.add_edge g 2 3;
  G.add_edge g 3 4;
  G.add_edge g 4 2;
  let comps = Scc.compute g in
  checki "component count" 3 (List.length comps);
  let nontrivial = Scc.nontrivial g in
  checki "nontrivial" 2 (List.length nontrivial)

let qcheck_scc_condensation_is_dag =
  QCheck.Test.make ~name:"SCC condensation is acyclic" ~count:100
    QCheck.(pair small_int (int_range 1 15))
    (fun (seed, n) ->
      let g = random_digraph (Rng.create seed) ~n ~p:0.2 in
      let comps = Scc.compute g in
      let comp_of = Array.make n 0 in
      List.iteri (fun i comp -> List.iter (fun v -> comp_of.(v) <- i) comp) comps;
      let c = G.create () in
      ignore (G.add_nodes c (List.length comps));
      G.iter_edges
        (fun e -> if comp_of.(e.G.src) <> comp_of.(e.G.dst) then G.add_edge c comp_of.(e.G.src) comp_of.(e.G.dst))
        g;
      Topo.is_dag c)

(* ---------- Paths ---------- *)

let floyd_warshall g =
  let n = G.node_count g in
  let d = Array.make_matrix n n Paths.unreachable in
  for i = 0 to n - 1 do
    d.(i).(i) <- 0
  done;
  G.iter_edges (fun e -> if e.G.weight < d.(e.G.src).(e.G.dst) then d.(e.G.src).(e.G.dst) <- e.G.weight) g;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if d.(i).(k) < Paths.unreachable && d.(k).(j) < Paths.unreachable && d.(i).(k) + d.(k).(j) < d.(i).(j)
        then d.(i).(j) <- d.(i).(k) + d.(k).(j)
      done
    done
  done;
  d

let qcheck_dijkstra_vs_floyd =
  QCheck.Test.make ~name:"dijkstra agrees with floyd-warshall" ~count:100
    QCheck.(pair small_int (int_range 1 12))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g = G.create () in
      ignore (G.add_nodes g n);
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j && Rng.float rng 1.0 < 0.3 then G.add_edge ~weight:(Rng.int rng 9) g i j
        done
      done;
      let fw = floyd_warshall g in
      List.for_all
        (fun src ->
          let d, _ = Paths.dijkstra g src in
          Array.to_list d = Array.to_list fw.(src))
        (List.init n Fun.id))

let test_dijkstra_path_extraction () =
  let g = G.create () in
  ignore (G.add_nodes g 4);
  G.add_edge ~weight:1 g 0 1;
  G.add_edge ~weight:1 g 1 2;
  G.add_edge ~weight:5 g 0 2;
  G.add_edge ~weight:1 g 2 3;
  let _, prev = Paths.dijkstra g 0 in
  Alcotest.(check (option (list int))) "path" (Some [ 0; 1; 2; 3 ])
    (Paths.extract_path prev ~src:0 ~dst:3)

(* ---------- Matching ---------- *)

let brute_matching n_left n_right pairs =
  (* maximum matching by DFS over subsets (small sizes) *)
  let best = ref 0 in
  let used = Array.make n_right false in
  let rec go l count =
    best := max !best count;
    if l < n_left then begin
      go (l + 1) count;
      List.iter
        (fun (l', r) ->
          if l' = l && not used.(r) then begin
            used.(r) <- true;
            go (l + 1) (count + 1);
            used.(r) <- false
          end)
        pairs
    end
  in
  go 0 0;
  !best

let qcheck_matching_vs_brute =
  QCheck.Test.make ~name:"hopcroft-karp matches brute force" ~count:150
    QCheck.(pair small_int (pair (int_range 1 7) (int_range 1 7)))
    (fun (seed, (nl, nr)) ->
      let rng = Rng.create seed in
      let m = Matching.create ~n_left:nl ~n_right:nr in
      let pairs = ref [] in
      for l = 0 to nl - 1 do
        for r = 0 to nr - 1 do
          if Rng.float rng 1.0 < 0.4 then begin
            Matching.add_pair m l r;
            pairs := (l, r) :: !pairs
          end
        done
      done;
      Matching.max_matching_size m = brute_matching nl nr !pairs)

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

(* ---------- Mcs / Iso ---------- *)

let path_graph n =
  let g = G.create () in
  ignore (G.add_nodes g n);
  for i = 0 to n - 2 do
    G.add_edge g i (i + 1)
  done;
  g

let test_mcs_paths () =
  (* common subgraph of a 3-path and a 5-path is the 3-path *)
  let a = path_graph 3 and b = path_graph 5 in
  let pairs, proven = Mcs.solve ~compatible:(fun _ _ -> true) a b in
  checkb "proven" true proven;
  checki "size" 3 (List.length pairs)

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
      G.iter_edges
        (fun e -> checkb "edge held" true (G.mem_edge host mapping.(e.G.src) mapping.(e.G.dst)))
        pattern
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
  let r = G.reverse g in
  checki "reversed" 2 (G.in_degree r a);
  let sub, _map = G.induced g [ a ] in
  checki "induced nodes" 1 (G.node_count sub);
  checki "induced edges" 0 (G.edge_count sub);
  checkb "dot output" true (String.length (G.to_dot g) > 0)

let () =
  Alcotest.run "graph"
    [
      ( "topo",
        [
          QCheck_alcotest.to_alcotest qcheck_topo_order_valid;
          Alcotest.test_case "cycle detection" `Quick test_topo_detects_cycle;
          Alcotest.test_case "longest paths" `Quick test_longest_path;
        ] );
      ( "scc",
        [
          Alcotest.test_case "known graph" `Quick test_scc_known;
          QCheck_alcotest.to_alcotest qcheck_scc_condensation_is_dag;
        ] );
      ( "paths",
        [
          QCheck_alcotest.to_alcotest qcheck_dijkstra_vs_floyd;
          Alcotest.test_case "path extraction" `Quick test_dijkstra_path_extraction;
        ] );
      ("matching", [ QCheck_alcotest.to_alcotest qcheck_matching_vs_brute ]);
      ("clique", [ QCheck_alcotest.to_alcotest qcheck_clique_vs_brute ]);
      ( "subgraphs",
        [
          Alcotest.test_case "mcs of paths" `Quick test_mcs_paths;
          Alcotest.test_case "iso path in grid" `Quick test_iso_path_in_grid;
          Alcotest.test_case "iso compatibility" `Quick test_iso_respects_compatibility;
          Alcotest.test_case "iso search verdicts" `Quick test_iso_search_verdicts;
        ] );
      ("digraph", [ Alcotest.test_case "basics" `Quick test_digraph_basics ]);
    ]
