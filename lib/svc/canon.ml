(* Canonical form of a kernel: Weisfeiler-Leman colour refinement over
   the labelled dependence multigraph, refined on demand by an exact
   isomorphism search.

   The node label is deliberately *not* the full op.  [Check.validate]
   accepts a binding for op [o] on PE [p] iff [Pe.supports p o], and
   that predicate only looks at (a) whether [o] is a [Const] (immediate
   slot needed) and (b) the functional class otherwise; scheduling only
   adds the latency.  So two ops with equal (const?, class, latency)
   triples are interchangeable for mapping purposes — [mul] by any
   name, [load A] vs [load B], [const 3] vs [const 7] — and the cache
   gets strictly more hits by labelling with the triple instead of the
   op.  The returned mapping is still re-certified against the actual
   request DFG, so the weaker label can never produce a wrong answer,
   only a demotion to miss if the validator disagrees. *)

module Dfg = Ocgra_dfg.Dfg
module Op = Ocgra_dfg.Op
module Digraph = Ocgra_graph.Digraph
module Iso = Ocgra_graph.Iso

type t = {
  dfg : Dfg.t;
  graph : Digraph.t Lazy.t; (* edge weight = (dist lsl 3) lor port; read only by [Iso.find_iso] *)
  labels : int array; (* mapping-relevant op identity per node *)
  colors : int array; (* stable WL colours *)
  edges : int array; (* [edge_ints]: the edges in insertion order *)
  key : int array Lazy.t; (* [sorted_key]: the edge multiset *)
  fp : int;
}

let dfg t = t.dfg
let fingerprint t = t.fp

(* FNV-ish mixer; constants kept below 2^62 so the literals parse on
   63-bit native ints.  Quality only has to be good enough that WL
   colour collisions are rare — the exact search behind [witness]
   absorbs the rest. *)
let mix h x =
  let h = (h lxor (x * 0x2545f4914f6cdd1)) * 0x100000001b3 in
  (h lxor (h lsr 29)) land max_int

let label op =
  let cls =
    match (op : Op.t) with
    | Op.Const _ -> 0 (* needs the immediate slot, not a class *)
    | _ -> (
        match Op.func_class op with
        | Op.F_alu -> 1
        | Op.F_mul -> 2
        | Op.F_mem -> 3
        | Op.F_io -> 4
        | Op.F_route -> 5)
  in
  (cls * 16) + Op.latency op

let edge_weight (e : Dfg.edge) = (e.Dfg.dist lsl 3) lor e.Dfg.port

(* Ascending sort of [a.(0 .. k-1)]: insertion sort at node degrees
   and kernel sizes, the library sort beyond. *)
let sort_prefix (a : int array) k =
  if k > 32 then begin
    let sub = Array.sub a 0 k in
    Array.sort Int.compare sub;
    Array.blit sub 0 a 0 k
  end
  else
    for i = 1 to k - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

(* The edges as ints.  Each edge packs into one int, (src, dst, port,
   dist) in 20/20/6/16 bits from the top, so the packed order is the
   tuple order; a DFG with a field out of those ranges keeps the four
   fields per edge instead, behind a -1 that no packed array starts
   with.  [edge_ints] keeps the insertion order; [sorted_key] is the
   identity key, equal for two DFGs iff their edge multisets are. *)
let fits (e : Dfg.edge) =
  e.Dfg.src < 1 lsl 20 && e.Dfg.dst < 1 lsl 20 && e.Dfg.port >= 0 && e.Dfg.port < 1 lsl 6
  && e.Dfg.dist < 1 lsl 16

let edge_ints (edges : Dfg.edge array) =
  if Array.for_all fits edges then
    Array.map
      (fun (e : Dfg.edge) ->
        (e.Dfg.src lsl 42) lor (e.Dfg.dst lsl 22) lor (e.Dfg.port lsl 16) lor e.Dfg.dist)
      edges
  else begin
    let ints = Array.make ((4 * Array.length edges) + 1) (-1) in
    Array.iteri
      (fun i (e : Dfg.edge) ->
        ints.((4 * i) + 1) <- e.Dfg.src;
        ints.((4 * i) + 2) <- e.Dfg.dst;
        ints.((4 * i) + 3) <- e.Dfg.port;
        ints.((4 * i) + 4) <- e.Dfg.dist)
      edges;
    ints
  end

let sorted_key edges ints =
  if Array.length ints = 0 || ints.(0) >= 0 then begin
    let key = Array.copy ints in
    sort_prefix key (Array.length key);
    key
  end
  else begin
    let sorted = Array.copy edges in
    Array.sort compare sorted;
    edge_ints sorted
  end

let of_dfg dfg =
  let n = Dfg.node_count dfg in
  let edges = Array.of_list (Dfg.edges dfg) in
  let m = Array.length edges in
  (* flat adjacency: node [v]'s in-edges are slots [in_at.(v) ..
     in_at.(v+1) - 1] of [in_w] (edge weight) and [in_nb] (producer);
     out-edges likewise, their weight offset as the refinement hashes
     it *)
  let in_at = Array.make (n + 1) 0 and out_at = Array.make (n + 1) 0 in
  Array.iter
    (fun (e : Dfg.edge) ->
      in_at.(e.Dfg.dst + 1) <- in_at.(e.Dfg.dst + 1) + 1;
      out_at.(e.Dfg.src + 1) <- out_at.(e.Dfg.src + 1) + 1)
    edges;
  for v = 0 to n - 1 do
    in_at.(v + 1) <- in_at.(v + 1) + in_at.(v);
    out_at.(v + 1) <- out_at.(v + 1) + out_at.(v)
  done;
  let in_w = Array.make m 0 and in_nb = Array.make m 0 in
  let out_w = Array.make m 0 and out_nb = Array.make m 0 in
  let in_fill = Array.copy in_at and out_fill = Array.copy out_at in
  Array.iter
    (fun (e : Dfg.edge) ->
      let w = edge_weight e in
      let k = in_fill.(e.Dfg.dst) in
      in_w.(k) <- w;
      in_nb.(k) <- e.Dfg.src;
      in_fill.(e.Dfg.dst) <- k + 1;
      let k = out_fill.(e.Dfg.src) in
      out_w.(k) <- w + 0x0f0f0f;
      out_nb.(k) <- e.Dfg.dst;
      out_fill.(e.Dfg.src) <- k + 1)
    edges;
  let labels = Array.init n (fun i -> label (Dfg.op dfg i)) in
  let colors = Array.map (fun l -> mix 0x5eed l) labels in
  let next = Array.make n 0 in
  let scratch = Array.make m 0 in
  (* A handful of rounds separates everything a WL refinement can
     separate on kernel-sized graphs (it stabilizes within the graph's
     diameter); the round count is a function of the (iso-invariant)
     node count, so isomorphic graphs always run the same refinement.
     Kept small — this runs on the request fast path, and a coarser
     colouring only costs [witness] more search, never correctness.
     Each node hashes its own colour, then the sorted multiset of its
     in-edge (weight, producer colour) mixes, then that of its
     out-edges. *)
  let rounds = min 5 (max 2 n) in
  for _ = 1 to rounds do
    for v = 0 to n - 1 do
      let h = ref (mix colors.(v) 0x517cc1) in
      let k = in_at.(v + 1) - in_at.(v) in
      for i = 0 to k - 1 do
        let j = in_at.(v) + i in
        scratch.(i) <- mix in_w.(j) colors.(in_nb.(j))
      done;
      sort_prefix scratch k;
      for i = 0 to k - 1 do
        h := mix !h scratch.(i)
      done;
      let k = out_at.(v + 1) - out_at.(v) in
      for i = 0 to k - 1 do
        let j = out_at.(v) + i in
        scratch.(i) <- mix out_w.(j) colors.(out_nb.(j))
      done;
      sort_prefix scratch k;
      for i = 0 to k - 1 do
        h := mix !h (scratch.(i) lxor 0x2a)
      done;
      next.(v) <- !h
    done;
    Array.blit next 0 colors 0 n
  done;
  let fp =
    let sorted = Array.copy colors in
    sort_prefix sorted n;
    let h = mix (mix 0x0c9 n) m in
    Array.fold_left mix h sorted
  in
  let graph =
    lazy
      (let g = Digraph.create () in
       if n > 0 then ignore (Digraph.add_nodes g n);
       Dfg.iter_edges
         (fun (e : Dfg.edge) -> Digraph.add_edge ~weight:(edge_weight e) g e.Dfg.src e.Dfg.dst)
         dfg;
       g)
  in
  let ints = edge_ints edges in
  { dfg; graph; labels; colors; edges = ints; key = lazy (sorted_key edges ints); fp }

(* Edges listed in the same order need no sort: the common case of a
   resubmitted kernel.  The sorted keys are built on first use. *)
let identical a b =
  a.labels = b.labels && (a.edges = b.edges || Lazy.force a.key = Lazy.force b.key)

let witness a b =
  let n = Array.length a.labels in
  if a.fp <> b.fp || n <> Array.length b.labels then None
  else if identical a b then
    (* exact duplicate under the identity: the common case for resubmitted
       kernels, served without a search *)
    Some (Array.init n (fun i -> i))
  else
    (* WL colours prune the exact search: a true isomorphism maps every
       node onto one with the same stable colour.  Labels are re-checked
       explicitly in case two different labels collided into one colour. *)
    Iso.find_iso
      ~compatible:(fun i j -> a.labels.(i) = b.labels.(j) && a.colors.(i) = b.colors.(j))
      (Lazy.force a.graph) (Lazy.force b.graph)

let permute d p =
  let n = Dfg.node_count d in
  if Array.length p <> n then invalid_arg "Canon.permute: length mismatch";
  let inv = Array.make n (-1) in
  Array.iteri
    (fun i j ->
      if j < 0 || j >= n || inv.(j) >= 0 then invalid_arg "Canon.permute: not a permutation";
      inv.(j) <- i)
    p;
  let out = Dfg.create () in
  for j = 0 to n - 1 do
    ignore (Dfg.add ~name:(Dfg.name d inv.(j)) out (Dfg.op d inv.(j)))
  done;
  List.iter
    (fun (e : Dfg.edge) ->
      Dfg.add_edge ~dist:e.Dfg.dist ~port:e.Dfg.port out ~src:p.(e.Dfg.src) ~dst:p.(e.Dfg.dst))
    (Dfg.edges d);
  out
