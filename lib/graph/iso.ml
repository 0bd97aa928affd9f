(* Subgraph isomorphism: find an injective mapping of the pattern graph
   into the host graph preserving directed edges, VF2-style backtracking
   with degree pruning.

   The graph-minor flavoured mappers test whether a transformed DFG
   embeds into the time-extended CGRA directly. *)

type search = Found of int array | Absent | Exhausted

let search ?(max_steps = 1_000_000) ~compatible pattern host =
  let np = Digraph.node_count pattern and nh = Digraph.node_count host in
  if np > nh then (Absent, 0)
  else begin
    let mapping = Array.make np (-1) in
    let used = Array.make nh false in
    let steps = ref 0 in
    (* Order pattern nodes by connectivity to already-ordered nodes so the
       search binds constrained nodes early. *)
    let order =
      let chosen = Array.make np false in
      let out = ref [] in
      for _ = 0 to np - 1 do
        let best = ref (-1) and best_score = ref (-1) in
        for v = 0 to np - 1 do
          if not chosen.(v) then begin
            let connected =
              List.length (List.filter (fun u -> chosen.(u)) (Digraph.succ pattern v))
              + List.length (List.filter (fun u -> chosen.(u)) (Digraph.pred pattern v))
            in
            let score = (connected * 1000) + Digraph.out_degree pattern v + Digraph.in_degree pattern v in
            if score > !best_score then begin
              best_score := score;
              best := v
            end
          end
        done;
        chosen.(!best) <- true;
        out := !best :: !out
      done;
      Array.of_list (List.rev !out)
    in
    let consistent v h =
      (* every already-mapped neighbour relation must hold in the host *)
      List.for_all
        (fun u -> mapping.(u) < 0 || Digraph.mem_edge host h mapping.(u))
        (Digraph.succ pattern v)
      && List.for_all
           (fun u -> mapping.(u) < 0 || Digraph.mem_edge host mapping.(u) h)
           (Digraph.pred pattern v)
    in
    let exception Embedded in
    (* the budget stops the search where it is: the tree it leaves
       unexplored means it proved nothing *)
    let exception Out_of_steps in
    let rec go i =
      incr steps;
      if !steps > max_steps then raise Out_of_steps
      else if i = np then raise Embedded
      else begin
        let v = order.(i) in
        for h = 0 to nh - 1 do
          if
            (not used.(h))
            && compatible v h
            && Digraph.out_degree host h >= Digraph.out_degree pattern v
            && Digraph.in_degree host h >= Digraph.in_degree pattern v
            && consistent v h
          then begin
            mapping.(v) <- h;
            used.(h) <- true;
            go (i + 1);
            used.(h) <- false;
            mapping.(v) <- -1
          end
        done
      end
    in
    match go 0 with
    | () -> (Absent, !steps)
    | exception Embedded -> (Found (Array.copy mapping), !steps)
    | exception Out_of_steps -> (Exhausted, max_steps)
  end

let find ?max_steps ~compatible pattern host =
  match search ?max_steps ~compatible pattern host with
  | Found m, _ -> Some m
  | (Absent | Exhausted), _ -> None

(* Full graph isomorphism over labelled multigraphs: the mapping-cache
   refinement of [find].  A witness must be a bijection (equal node
   counts, injectivity gives surjectivity), degrees must match exactly,
   and for every matched pair of nodes the sorted weight list of the
   parallel edges between them must coincide — weights are how callers
   encode edge labels, so a weight mismatch is a label mismatch. *)
let find_iso ?(max_steps = 1_000_000) ~compatible a b =
  let na = Digraph.node_count a and nb = Digraph.node_count b in
  if na <> nb || Digraph.edge_count a <> Digraph.edge_count b then None
  else begin
    let mapping = Array.make na (-1) in
    let used = Array.make nb false in
    let steps = ref 0 in
    (* weights of the parallel edges u -> v, sorted: the edge-label
       multiset between one ordered node pair *)
    let weights g u v =
      List.sort compare
        (List.filter_map
           (fun (e : Digraph.edge) -> if e.dst = v then Some e.weight else None)
           (Digraph.succ_edges g u))
    in
    (* bind constrained nodes early, exactly like [find] *)
    let order =
      let chosen = Array.make na false in
      let out = ref [] in
      for _ = 0 to na - 1 do
        let best = ref (-1) and best_score = ref (-1) in
        for v = 0 to na - 1 do
          if not chosen.(v) then begin
            let connected =
              List.length (List.filter (fun u -> chosen.(u)) (Digraph.succ a v))
              + List.length (List.filter (fun u -> chosen.(u)) (Digraph.pred a v))
            in
            let score = (connected * 1000) + Digraph.out_degree a v + Digraph.in_degree a v in
            if score > !best_score then begin
              best_score := score;
              best := v
            end
          end
        done;
        chosen.(!best) <- true;
        out := !best :: !out
      done;
      Array.of_list (List.rev !out)
    in
    let consistent v h =
      (* every edge bundle between v and an already-mapped neighbour
         must exist in b with the identical weight multiset — checked
         in both directions, so the bijection preserves non-edges too
         (equal edge counts then close the argument) *)
      List.for_all
        (fun u -> mapping.(u) < 0 || weights a v u = weights b h mapping.(u))
        (Digraph.succ a v)
      && List.for_all
           (fun u -> mapping.(u) < 0 || weights a u v = weights b mapping.(u) h)
           (Digraph.pred a v)
    in
    let exception Found in
    let rec go i =
      incr steps;
      if !steps > max_steps then ()
      else if i = na then raise Found
      else begin
        let v = order.(i) in
        for h = 0 to nb - 1 do
          if
            (not used.(h))
            && compatible v h
            && Digraph.out_degree b h = Digraph.out_degree a v
            && Digraph.in_degree b h = Digraph.in_degree a v
            && consistent v h
          then begin
            mapping.(v) <- h;
            used.(h) <- true;
            go (i + 1);
            used.(h) <- false;
            mapping.(v) <- -1
          end
        done
      end
    in
    try
      go 0;
      None
    with Found -> Some (Array.copy mapping)
  end
