(* Subgraph isomorphism: find an injective mapping of the pattern graph
   into the host graph preserving directed edges, VF2-style backtracking
   with degree pruning.  [find_iso] runs the same search for a full
   isomorphism of labelled multigraphs.

   The graph-minor flavoured mappers test whether a transformed DFG
   embeds into the time-extended CGRA directly.

   Both searches share one backtracking core over arrays built once per
   call: the binding order, each position's already-bound neighbours,
   the degree arrays, a flat host adjacency (or bundle) matrix, and per
   pattern node the ascending list of hosts that pass [compatible] and
   the degree test.  [compatible] is therefore asked once per (pattern
   node, host node) pair, not once per search node, which is sound
   because every caller's predicate is pure. *)

type search = Found of int array | Absent | Exhausted

let degrees g =
  let n = Digraph.node_count g in
  (Array.init n (Digraph.out_degree g), Array.init n (Digraph.in_degree g))

(* Binding order: repeatedly the unchosen node with the most edges
   (parallel ones counted) to chosen nodes, then the highest degree,
   the lowest id on ties, so the search binds constrained nodes early. *)
let order g ~out_deg ~in_deg =
  let n = Digraph.node_count g in
  let chosen = Array.make n false and links = Array.make n 0 in
  Array.init n (fun _ ->
      let best = ref (-1) and best_score = ref (-1) in
      for v = 0 to n - 1 do
        if not chosen.(v) then begin
          let score = (links.(v) * 1000) + out_deg.(v) + in_deg.(v) in
          if score > !best_score then begin
            best_score := score;
            best := v
          end
        end
      done;
      let b = !best in
      chosen.(b) <- true;
      let link v = links.(v) <- links.(v) + 1 in
      List.iter (fun (e : Digraph.edge) -> link e.dst) (Digraph.succ_edges g b);
      List.iter (fun (e : Digraph.edge) -> link e.src) (Digraph.pred_edges g b);
      b)

(* For each position [i] of [order], the distinct nodes bound before it
   that its node points to ([outs]) and that point to it ([ins]):
   exactly the mapped neighbours when position [i] is tried.  Self-loops
   are left out; [find_iso] checks them on their own. *)
let back_neighbours g order =
  let n = Array.length order in
  let pos = Array.make n 0 in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  let earlier i us =
    Array.of_list (List.sort_uniq compare (List.filter (fun u -> pos.(u) < i) us))
  in
  ( Array.mapi (fun i v -> earlier i (Digraph.succ g v)) order,
    Array.mapi (fun i v -> earlier i (Digraph.pred g v)) order )

(* The hosts each pattern node may take, ascending. *)
let candidates np nh ok =
  Array.init np (fun v ->
      let hs = ref [] in
      for h = nh - 1 downto 0 do
        if ok v h then hs := h :: !hs
      done;
      Array.of_list !hs)

(* Depth-first over [order]: position [i] tries each unused candidate
   host [h] of its node, ascending, that passes [fits i h].  A search
   node is one call of [go]; the budget stops the search where it is,
   and the tree it leaves unexplored means it proved nothing. *)
let backtrack ~max_steps ~order ~cands ~fits ~mapping nh =
  let np = Array.length order in
  let used = Array.make nh false in
  let steps = ref 0 in
  let exception Embedded in
  let exception Out_of_steps in
  let rec go i =
    incr steps;
    if !steps > max_steps then raise Out_of_steps
    else if i = np then raise Embedded
    else begin
      let v = order.(i) in
      let hs = cands.(v) in
      for k = 0 to Array.length hs - 1 do
        let h = hs.(k) in
        if (not used.(h)) && fits i h then begin
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

let search ?(max_steps = 1_000_000) ~compatible pattern host =
  let np = Digraph.node_count pattern and nh = Digraph.node_count host in
  if np > nh then (Absent, 0)
  else begin
    let p_out, p_in = degrees pattern and h_out, h_in = degrees host in
    let order = order pattern ~out_deg:p_out ~in_deg:p_in in
    let outs, ins = back_neighbours pattern order in
    let adj = Bytes.make (nh * nh) '\000' in
    for h = 0 to nh - 1 do
      List.iter
        (fun (e : Digraph.edge) -> Bytes.set adj ((h * nh) + e.dst) '\001')
        (Digraph.succ_edges host h)
    done;
    let cands =
      candidates np nh (fun v h -> h_out.(h) >= p_out.(v) && h_in.(h) >= p_in.(v) && compatible v h)
    in
    let mapping = Array.make np (-1) in
    (* every already-mapped neighbour relation must hold in the host *)
    let linked a b = Bytes.get adj ((a * nh) + b) <> '\000' in
    let rec links_out us k h =
      k = Array.length us || (linked h mapping.(us.(k)) && links_out us (k + 1) h)
    in
    let rec links_in us k h =
      k = Array.length us || (linked mapping.(us.(k)) h && links_in us (k + 1) h)
    in
    let fits i h = links_out outs.(i) 0 h && links_in ins.(i) 0 h in
    backtrack ~max_steps ~order ~cands ~fits ~mapping nh
  end

let find ?max_steps ~compatible pattern host =
  match search ?max_steps ~compatible pattern host with
  | Found m, _ -> Some m
  | (Absent | Exhausted), _ -> None

(* [codes.(x * n + y)] names the sorted weight list of the parallel
   edges x -> y (the edge-label multiset between one ordered node pair)
   by its [intern] number; 0 when there is no such edge. *)
let bundle_codes intern g =
  let n = Digraph.node_count g in
  let codes = Array.make (n * n) 0 and bundle = Array.make n [] in
  for x = 0 to n - 1 do
    let edges = Digraph.succ_edges g x in
    List.iter (fun (e : Digraph.edge) -> bundle.(e.dst) <- e.weight :: bundle.(e.dst)) edges;
    List.iter
      (fun (e : Digraph.edge) ->
        if bundle.(e.dst) <> [] then begin
          codes.((x * n) + e.dst) <- intern (List.sort compare bundle.(e.dst));
          bundle.(e.dst) <- []
        end)
      edges
  done;
  codes

(* Full graph isomorphism over labelled multigraphs: the mapping-cache
   refinement of [find].  A witness must be a bijection (equal node
   counts, injectivity gives surjectivity), degrees must match exactly,
   and for every matched pair of nodes, a node with itself included,
   the sorted weight list of the parallel edges between them must
   coincide — weights are how callers encode edge labels, so a weight
   mismatch is a label mismatch. *)
let find_iso ?(max_steps = 1_000_000) ~compatible a b =
  let n = Digraph.node_count a in
  if n <> Digraph.node_count b || Digraph.edge_count a <> Digraph.edge_count b then None
  else begin
    let a_out, a_in = degrees a and b_out, b_in = degrees b in
    let order = order a ~out_deg:a_out ~in_deg:a_in in
    let outs, ins = back_neighbours a order in
    let interned = Hashtbl.create 16 in
    let intern ws =
      match Hashtbl.find_opt interned ws with
      | Some c -> c
      | None ->
          let c = Hashtbl.length interned + 1 in
          Hashtbl.add interned ws c;
          c
    in
    let ca = bundle_codes intern a and cb = bundle_codes intern b in
    let cands =
      candidates n n (fun v h -> b_out.(h) = a_out.(v) && b_in.(h) = a_in.(v) && compatible v h)
    in
    let mapping = Array.make n (-1) in
    (* every edge bundle between v and itself or an already-mapped
       neighbour must exist in b with the identical weight multiset —
       checked in both directions, so the bijection preserves non-edges
       too (equal edge counts then close the argument) *)
    let rec same_out us k v h =
      k = Array.length us
      || (ca.((v * n) + us.(k)) = cb.((h * n) + mapping.(us.(k))) && same_out us (k + 1) v h)
    in
    let rec same_in us k v h =
      k = Array.length us
      || (ca.((us.(k) * n) + v) = cb.((mapping.(us.(k)) * n) + h) && same_in us (k + 1) v h)
    in
    let fits i h =
      let v = order.(i) in
      ca.((v * n) + v) = cb.((h * n) + h) && same_out outs.(i) 0 v h && same_in ins.(i) 0 v h
    in
    match backtrack ~max_steps ~order ~cands ~fits ~mapping n with
    | Found m, _ -> Some m
    | (Absent | Exhausted), _ -> None
  end
