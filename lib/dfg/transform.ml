(* Middle-end passes over DFGs: dead-code elimination,
   common-subexpression elimination and loop unrolling.

   These are the "transformations, optimisations" of the compilation
   flow in Fig. 3; unrolling in particular is one of the classic
   techniques on the Fig. 4 timeline. *)

(* Rebuild a DFG keeping only the nodes in [keep] (a predicate);
   remaining nodes keep their relative order.  Returns the new graph
   and the old->new id mapping (-1 for dropped). *)
let filter_nodes t keep =
  let n = Dfg.node_count t in
  let remap = Array.make n (-1) in
  let out = Dfg.create () in
  Dfg.iter_nodes
    (fun nd -> if keep nd.Dfg.id then remap.(nd.id) <- Dfg.add ~name:nd.name out nd.op)
    t;
  Dfg.iter_edges
    (fun (e : Dfg.edge) ->
      if remap.(e.src) >= 0 && remap.(e.dst) >= 0 then
        Dfg.add_edge out ~src:remap.(e.src) ~dst:remap.(e.dst) ~port:e.port ~dist:e.dist)
    t;
  (out, remap)

(* Dead-code elimination: keep only nodes that reach a side effect
   (Output/Store) through data dependences of any distance. *)
let dce t =
  let n = Dfg.node_count t in
  let live = Array.make n false in
  let preds = Array.make n [] in
  Dfg.iter_edges (fun (e : Dfg.edge) -> preds.(e.dst) <- e.src :: preds.(e.dst)) t;
  let rec mark v =
    if not live.(v) then begin
      live.(v) <- true;
      List.iter mark preds.(v)
    end
  in
  Dfg.iter_nodes (fun nd -> if Op.has_side_effect nd.op then mark nd.id) t;
  fst (filter_nodes t (fun v -> live.(v)))

(* CSE: merge structurally identical pure nodes (same op, same
   producers on same ports and distances), bottom-up. *)
let cse t =
  let n = Dfg.node_count t in
  let order =
    match Ocgra_graph.Topo.sort (Dfg.to_digraph t) with
    | Some o -> o
    | None -> invalid_arg "Transform.cse: cyclic dist-0 subgraph"
  in
  let repr = Array.init n (fun i -> i) in
  let table = Hashtbl.create 64 in
  let in_edges = Array.make n [] in
  Dfg.iter_edges (fun (e : Dfg.edge) -> in_edges.(e.dst) <- e :: in_edges.(e.dst)) t;
  List.iter
    (fun v ->
      let op = Dfg.op t v in
      let pure = (not (Op.has_side_effect op)) && (match op with Op.Load _ | Op.Input _ -> false | _ -> true) in
      let carried = List.exists (fun (e : Dfg.edge) -> e.dist > 0) in_edges.(v) in
      if pure && not carried then begin
        let sig_parts =
          List.map
            (fun (e : Dfg.edge) -> Printf.sprintf "%d:%d" e.port repr.(e.src))
            (List.sort (fun (a : Dfg.edge) b -> compare a.port b.port) in_edges.(v))
        in
        let key = Op.to_string op ^ "|" ^ String.concat "," sig_parts in
        match Hashtbl.find_opt table key with
        | Some w -> repr.(v) <- w
        | None -> Hashtbl.add table key v
      end)
    order;
  (* Keep representative nodes; rewire edges through repr. *)
  let keep = Array.make n false in
  Array.iteri (fun v r -> if r = v then keep.(v) <- true) repr;
  let out = Dfg.create () in
  let remap = Array.make n (-1) in
  Dfg.iter_nodes (fun nd -> if keep.(nd.id) then remap.(nd.id) <- Dfg.add ~name:nd.name out nd.op) t;
  let seen = Hashtbl.create 64 in
  Dfg.iter_edges
    (fun (e : Dfg.edge) ->
      if keep.(e.dst) then begin
        let key = (repr.(e.src), e.dst, e.port, e.dist) in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          Dfg.add_edge out ~src:remap.(repr.(e.src)) ~dst:remap.(e.dst) ~port:e.port ~dist:e.dist
        end
      end)
    t;
  dce out

(* Loop unrolling by factor [u]: u copies of every node; a dist-d edge
   from producer p to consumer c becomes, for consumer copy k, an edge
   from producer copy (k - d) mod u with new distance (d + u - 1 - k +
   ((k - d) mod u)) / u ... computed as: src iteration offset = k - d;
   copy = ((k - d) mod u + u) mod u; new dist = (copy - (k - d)) / u. *)
let unroll t u =
  if u < 1 then invalid_arg "Transform.unroll: factor must be >= 1";
  if u = 1 then t
  else begin
    let n = Dfg.node_count t in
    let out = Dfg.create () in
    let copy = Array.make_matrix u n (-1) in
    for k = 0 to u - 1 do
      Dfg.iter_nodes
        (fun nd ->
          let name = Printf.sprintf "%s.%d" nd.name k in
          let op =
            match nd.op with
            | Op.Output s -> Op.Output (Printf.sprintf "%s.%d" s k)
            | Op.Input s -> Op.Input (Printf.sprintf "%s.%d" s k)
            | op -> op
          in
          copy.(k).(nd.id) <- Dfg.add ~name out op)
        t
    done;
    for k = 0 to u - 1 do
      Dfg.iter_edges
        (fun (e : Dfg.edge) ->
          let src_iter = k - e.dist in
          let src_copy = ((src_iter mod u) + u) mod u in
          let new_dist = (src_copy - src_iter) / u in
          Dfg.add_edge out ~src:copy.(src_copy).(e.src) ~dst:copy.(k).(e.dst) ~port:e.port
            ~dist:new_dist)
        t
    done;
    out
  end
