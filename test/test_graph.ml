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
          (fun e -> checkb "edge held" true (List.mem mapping.(e.G.dst) (G.succ host mapping.(v))))
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

(* Golden search order: the verdict, node count and whole witness of
   fixed searches into the 4x4 mesh's link graph, recorded before the
   search moved onto arrays.  Any change to the binding order, the
   ascending host loop or the pruning tests moves them. *)
let test_iso_search_golden () =
  let graph n edges =
    let g = G.create () in
    ignore (G.add_nodes g n);
    List.iter (fun (a, b) -> G.add_edge g a b) edges;
    g
  in
  let mesh = Ocgra_arch.Cgra.connectivity_graph (Ocgra_arch.Cgra.uniform ~rows:4 ~cols:4 ()) in
  let any _ _ = true in
  let check name expected got = checkb name true (got = expected) in
  let path6 = graph 6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5) ] in
  check "6-node path" (Iso.Found [| 4; 0; 1; 2; 3; 7 |], 7) (Iso.search ~compatible:any path6 mesh);
  let tree = graph 6 [ (0, 1); (0, 2); (0, 3); (1, 4); (1, 5) ] in
  check "tree with a compatibility table"
    (Iso.Found [| 2; 6; 3; 1; 7; 5 |], 22)
    (Iso.search ~compatible:(fun v h -> (v + h) mod 3 <> 0) tree mesh);
  (* the mesh is bipartite: a directed 7-cycle never closes *)
  let cycle7 = graph 7 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 6); (6, 0) ] in
  check "odd cycle, whole tree" (Iso.Absent, 1633) (Iso.search ~compatible:any cycle7 mesh);
  check "odd cycle, half the budget" (Iso.Exhausted, 816)
    (Iso.search ~max_steps:816 ~compatible:any cycle7 mesh);
  check "path, budget of 3" (Iso.Exhausted, 3) (Iso.search ~max_steps:3 ~compatible:any path6 mesh)

(* Two graphs that differ only in a self-loop's weight are not
   isomorphic as labelled multigraphs. *)
let test_find_iso_self_loop_weight () =
  let graph loop_weight =
    let g = G.create () in
    ignore (G.add_nodes g 2);
    G.add_edge g 0 1;
    G.add_edge ~weight:loop_weight g 0 0;
    g
  in
  let any _ _ = true in
  checkb "weight 1 vs weight 2" true (Iso.find_iso ~compatible:any (graph 1) (graph 2) = None);
  checkb "weight 2 vs weight 1" true (Iso.find_iso ~compatible:any (graph 2) (graph 1) = None);
  checkb "same weights match" true
    (Iso.find_iso ~compatible:any (graph 2) (graph 2) = Some [| 0; 1 |])

(* ---------- Iso against brute force ---------- *)

(* A random multigraph on [n] nodes: parallel edges and self-loops
   allowed, weights 1 or 2. *)
let random_multigraph st n =
  let g = G.create () in
  ignore (G.add_nodes g n);
  if n > 0 then
    for _ = 1 to Random.State.int st (2 * n + 1) do
      let src = Random.State.int st n and dst = Random.State.int st n in
      G.add_edge ~weight:(1 + Random.State.int st 2) g src dst
    done;
  g

(* Every injective map of [0..np-1] into [0..nh-1], as arrays. *)
let injections np nh =
  let rec go i used =
    if i = np then [ [] ]
    else
      List.concat_map
        (fun h ->
          if List.mem h used then [] else List.map (fun m -> h :: m) (go (i + 1) (h :: used)))
        (List.init nh Fun.id)
  in
  List.map Array.of_list (go 0 [])

let weights g u v =
  List.sort compare
    (List.filter_map
       (fun (e : G.edge) -> if e.dst = v then Some e.weight else None)
       (G.succ_edges g u))

(* What [Iso.search] accepts: an injective, compatible map whose host
   degrees (parallel edges and self-loops counted) cover the pattern's
   and that carries every edge between two distinct pattern nodes onto
   a host edge.  Pattern self-loops count only towards the degrees. *)
let embeds ~compatible pattern host m =
  let np = G.node_count pattern in
  List.for_all
    (fun v ->
      compatible v m.(v)
      && G.out_degree host m.(v) >= G.out_degree pattern v
      && G.in_degree host m.(v) >= G.in_degree pattern v
      && List.for_all
           (fun u -> u = v || List.mem m.(u) (G.succ host m.(v)))
           (G.succ pattern v))
    (List.init np Fun.id)
  && List.length (List.sort_uniq compare (Array.to_list m)) = np

let qcheck_search_vs_brute =
  QCheck.Test.make ~name:"iso search agrees with brute force" ~count:400
    (QCheck.int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let np = Random.State.int st 5 and nh = Random.State.int st 6 in
      let pattern = random_multigraph st np and host = random_multigraph st nh in
      let table = Array.init np (fun _ -> Array.init nh (fun _ -> Random.State.int st 4 > 0)) in
      let compatible v h = table.(v).(h) in
      let exists = List.exists (embeds ~compatible pattern host) (injections np nh) in
      let verdict, nodes = Iso.search ~compatible pattern host in
      (match verdict with
      | Iso.Found m -> exists && embeds ~compatible pattern host m
      | Iso.Absent -> not exists
      | Iso.Exhausted -> false)
      && (nodes = 0
         || Iso.search ~max_steps:(nodes - 1) ~compatible pattern host
            = (Iso.Exhausted, nodes - 1)))

(* [b] is [a] with its nodes renamed by a random permutation, and
   sometimes one edge re-weighted, dropped or added. *)
let qcheck_find_iso_vs_brute =
  QCheck.Test.make ~name:"find_iso agrees with brute force over permutations" ~count:400
    (QCheck.int_bound 1_000_000) (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = 1 + Random.State.int st 5 in
      let a = random_multigraph st n in
      let perm = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      let edges = List.concat_map (G.succ_edges a) (List.init n Fun.id) in
      let edges =
        match (Random.State.int st 4, edges) with
        | 0, (e : G.edge) :: rest -> { e with weight = 3 - e.weight } :: rest
        | 1, _ :: rest -> rest
        | 2, _ ->
            let src = Random.State.int st n and dst = Random.State.int st n in
            { G.src; dst; weight = 1 } :: edges
        | _ -> edges
      in
      let b = G.create () in
      ignore (G.add_nodes b n);
      List.iter (fun (e : G.edge) -> G.add_edge ~weight:e.weight b perm.(e.src) perm.(e.dst)) edges;
      let label_a = Array.init n (fun _ -> Random.State.int st 2) in
      let label_b = Array.make n 0 in
      Array.iteri (fun v h -> label_b.(h) <- label_a.(v)) perm;
      if Random.State.bool st then label_b.(Random.State.int st n) <- Random.State.int st 2;
      let compatible v h = label_a.(v) = label_b.(h) in
      let iso w =
        List.for_all
          (fun x ->
            compatible x w.(x)
            && List.for_all (fun y -> weights a x y = weights b w.(x) w.(y)) (List.init n Fun.id))
          (List.init n Fun.id)
      in
      match Iso.find_iso ~compatible a b with
      | Some w -> iso w
      | None -> not (List.exists iso (injections n n)))

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
          Alcotest.test_case "iso search order golden" `Quick test_iso_search_golden;
          Alcotest.test_case "find_iso self-loop weights" `Quick test_find_iso_self_loop_weight;
          QCheck_alcotest.to_alcotest qcheck_search_vs_brute;
          QCheck_alcotest.to_alcotest qcheck_find_iso_vs_brute;
        ] );
      ("digraph", [ Alcotest.test_case "basics" `Quick test_digraph_basics ]);
    ]
