(* Graph-based binding via subgraph isomorphism on the modulo
   time-extended CGRA (the EPIMap [28] / Peyret et al. [47] / graph
   minor [27] school: transform the DFG until it embeds in the
   time-space graph).

   The schedule comes from modulo list scheduling; every dependence is
   then materialised as a chain of Route nodes so each pattern edge
   spans exactly one cycle, and the resulting pattern is matched into
   the modulo TEC graph [Mrrg.host] ((PE, slot) nodes, one-cycle
   reachability edges, self-edges included) with VF2-style search, on
   [Mrrg.live] cells only.  Injectivity on (PE, slot) is FU exclusivity. *)

open Ocgra_dfg
open Ocgra_core

type pattern_node = P_op of int | P_route of int * int (* edge index, hop number *)

let bind (p : Problem.t) ~ii times =
  let dfg = p.dfg and cgra = p.cgra in
  let n = Dfg.node_count dfg in
  let edges = Array.of_list (Dfg.edges dfg) in
  (* pattern graph: ops + route chains, every node with a fixed time *)
  let pat = Ocgra_graph.Digraph.create () in
  (* (kind, time) of every pattern node, newest first; node ids count up from 0 *)
  let pat_nodes = ref [] in
  let add_pat node time =
    pat_nodes := (node, time) :: !pat_nodes;
    Ocgra_graph.Digraph.add_node pat
  in
  let op_id = Array.init n (fun v -> add_pat (P_op v) times.(v)) in
  let route_chains = Array.make (Array.length edges) [] in
  let feasible = ref true in
  Array.iteri
    (fun e (edge : Dfg.edge) ->
      let lat = Op.latency (Dfg.op dfg edge.src) in
      let k = times.(edge.dst) + (edge.dist * ii) - times.(edge.src) - lat in
      if k < 0 then feasible := false
      else begin
        let prev = ref op_id.(edge.src) in
        let chain = ref [] in
        for i = 1 to k do
          let t = times.(edge.src) + lat + i - 1 in
          let r = add_pat (P_route (e, i)) t in
          chain := (r, t) :: !chain;
          Ocgra_graph.Digraph.add_edge pat !prev r;
          prev := r
        done;
        route_chains.(e) <- List.rev !chain;
        Ocgra_graph.Digraph.add_edge pat !prev op_id.(edge.dst)
      end)
    edges;
  if not !feasible then None
  else begin
    let pat_nodes = Array.of_list (List.rev !pat_nodes) in
    let mrrg = Mrrg.make cgra ~ii in
    let compatible pid hid =
      let kind, t = pat_nodes.(pid) and pe = hid / ii in
      t mod ii = hid mod ii && Mrrg.live mrrg ~pe ~time:t
      &&
      match kind with
      | P_op v -> Ocgra_arch.Cgra.supports cgra pe (Dfg.op dfg v)
      | P_route _ -> true
    in
    match Ocgra_graph.Iso.find ~max_steps:400_000 ~compatible pat (Mrrg.host mrrg) with
    | None -> None
    | Some mapping ->
        let binding = Array.init n (fun v -> (mapping.(op_id.(v)) / ii, times.(v))) in
        let routes =
          Array.mapi
            (fun e _ ->
              List.map
                (fun (rid, t) -> Mapping.Hop { pe = mapping.(rid) / ii; time = t })
                route_chains.(e))
            edges
        in
        Some { Mapping.ii; binding; routes }
  end

let mapper =
  Mapper.make ~name:"iso-binding" ~citation:"Hamzeh et al. EPIMap [28]; Chen & Mitra [27]; Peyret et al. [47]"
    ~scope:Taxonomy.Binding_only ~approach:Taxonomy.Heuristic
    (fun p rng dl obs ->
      Sched.with_schedule ~obs ~tag:"iso" ~counter:"iso.matches"
        ~note:"route-node insertion + subgraph isomorphism into the modulo TEC" p rng ~restarts:4
        ~dl (bind p))
