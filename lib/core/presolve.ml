(* Structural presolve: refute a candidate II of the exact temporal
   sweep without search, with a certificate an integer checker
   re-verifies.

   All three rules hold for the FU-hop route model of the SAT encoding: a
   value waits only by hopping through FUs (one hop per cycle, no RF
   holds) and every edge routes on its own (no fan-out sharing).  In
   that model every op and every hop takes a distinct (PE, slot) pair.

   1. Slot count.  An edge's value is produced at t_src + lat_src and
      read at t_dst + dist*II, so it needs at least that many cycles of
      hops in between.  With H_min(II) the minimum over schedules of
      the summed edge slack, n + H_min must fit in the live (PE, slot)
      pairs.  H_min is a difference-constraint LP; its dual
        max  Σ_e c_e y_e   s.t.  Σ_in y − Σ_out y <= indeg − outdeg,
                                 y >= 0,            c_e = lat_src − dist*II
      is a network LP with an integral optimum, and any feasible y
      bounds H from below by Σ_e c_e (y_e − 1) for every schedule with
      t >= 0.  The certificate carries those integer multipliers.

   2. Neighbourhood at II = 1.  With one slot, each PE hosts one op or
      one hop for the whole loop, so an op cannot read its own PE's
      output (bar a self-loop).  Each distinct DFG neighbour of v needs
      its own PE adjacent to v's — hosting the neighbour or a hop of
      the connecting edge — either as a source v's PE reads from or as
      a reader of v's PE.  Under link faults adjacency can be one-way,
      so both directions count towards a PE's room.

   3. Embedding at a tight II = 1.  When the ops alone fill every live
      slot (n = live, so H_min = 0), no slot is left for a hop: every
      edge other than a self-loop goes straight from the producer's PE
      to the consumer's over one directed link.  The placement is then
      an embedding of the DFG (self-loops and parallel edges dropped)
      into the link graph that puts each op on a live PE supporting
      it, and no embedding refutes the II.  VF2 searches for one; the
      checker re-derives the verdict with a second, plain backtracking
      embedder.  A search that runs out of budget proves nothing, so
      the rule then abstains. *)

open Ocgra_dfg
open Ocgra_arch

type route_model = Fu_hop

let route_model_to_string Fu_hop = "fu-hop"

type rule =
  | Slot_count of { needed : int; live : int; y : int array }
  | Neighbourhood of { node : int; degree : int; room : int }
  | Embedding of { ops : int; slots : int; vf2_nodes : int; dfs_nodes : int }

type certificate = { ii : int; model : route_model; rule : rule }

let live_slots (p : Problem.t) ~ii =
  let live = ref 0 in
  for pe = 0 to Cgra.pe_count p.cgra - 1 do
    if Cgra.pe_ok p.cgra pe then
      for s = 0 to ii - 1 do
        if Cgra.slot_ok p.cgra ~pe ~ii ~time:s then incr live
      done
  done;
  !live

(* ---- rule 1: slot count ---- *)

let edge_cost dfg ~ii (e : Dfg.edge) = Op.latency (Dfg.op dfg e.src) - (e.dist * ii)

(* The hop lower bound Σ_e c_e (y_e − 1) of dual-feasible multipliers,
   or [None] when [y] is not dual feasible. *)
let hop_bound dfg ~ii edges y =
  if Array.length y <> Array.length edges || Array.exists (fun v -> v < 0) y then None
  else begin
    (* per node: (Σ_in y − Σ_out y) − (indeg − outdeg), must be <= 0 *)
    let excess = Array.make (Dfg.node_count dfg) 0 in
    Array.iteri
      (fun i (e : Dfg.edge) ->
        excess.(e.dst) <- excess.(e.dst) + y.(i) - 1;
        excess.(e.src) <- excess.(e.src) - y.(i) + 1)
      edges;
    if Array.exists (fun d -> d > 0) excess then None
    else begin
      let h = ref 0 in
      Array.iteri (fun i e -> h := !h + (edge_cost dfg ~ii e * (y.(i) - 1))) edges;
      Some !h
    end
  end

(* Optimal dual multipliers from the LP.  A node's row has +1 per
   in-edge and -1 per out-edge (a self-loop cancels to 0), and its
   right-hand side is the row sum, so y = 1 is always feasible.  An
   unbounded dual means II is below the recurrence bound, where this
   rule has nothing to say. *)
let min_hop_multipliers dfg ~ii edges =
  if edges = [||] then Some [||]
  else begin
    let row v =
      let a =
        Array.map
          (fun (e : Dfg.edge) -> float_of_int (Bool.to_int (e.dst = v) - Bool.to_int (e.src = v)))
          edges
      in
      (a, Ocgra_ilp.Lp.Le, Array.fold_left ( +. ) 0.0 a)
    in
    let lp =
      {
        Ocgra_ilp.Lp.n = Array.length edges;
        maximize = true;
        objective = Array.map (fun e -> float_of_int (edge_cost dfg ~ii e)) edges;
        rows = List.init (Dfg.node_count dfg) row;
      }
    in
    match Ocgra_ilp.Lp.solve lp with
    | Ocgra_ilp.Lp.Optimal { solution; _ } ->
        Some (Array.map (fun x -> int_of_float (Float.round x)) solution)
    | Ocgra_ilp.Lp.Infeasible | Ocgra_ilp.Lp.Unbounded -> None
  end

(* H_min and its multipliers, or [None] below the recurrence bound. *)
let min_hops (p : Problem.t) ~ii =
  let edges = Array.of_list (Dfg.edges p.dfg) in
  Option.bind (min_hop_multipliers p.dfg ~ii edges) (fun y ->
      Option.map (fun h -> (h, y)) (hop_bound p.dfg ~ii edges y))

let slot_count (p : Problem.t) ~ii =
  match min_hops p ~ii with
  | None -> None
  | Some (h, y) ->
      let needed = Dfg.node_count p.dfg + h and live = live_slots p ~ii in
      if needed > live then Some (Slot_count { needed; live; y }) else None

(* ---- rule 2: neighbourhood at II = 1 ---- *)

let degree dfg v =
  let others =
    List.filter_map
      (fun (e : Dfg.edge) -> if e.src <> v then Some e.src else None)
      (Dfg.in_edges dfg v)
    @ List.filter_map
        (fun (e : Dfg.edge) -> if e.dst <> v then Some e.dst else None)
        (Dfg.out_edges dfg v)
  in
  List.length (List.sort_uniq compare others)

(* A healthy PE whose single config slot is alive. *)
let alive cgra pe = Cgra.pe_ok cgra pe && Cgra.slot_ok cgra ~pe ~ii:1 ~time:0

(* Can PE [pe] host op [v] at II = 1? *)
let hosts (p : Problem.t) v pe = Cgra.supports p.cgra pe (Dfg.op p.dfg v) && alive p.cgra pe

(* Live single-slot PEs adjacent to [q] in either direction: [q]'s
   outgoing links and the tail of its feeder list (its incoming ones). *)
let room cgra q =
  let adjacent = List.sort_uniq compare (Cgra.neighbours cgra q @ List.tl (Cgra.feeders cgra q)) in
  List.length (List.filter (fun s -> s <> q && alive cgra s) adjacent)

(* The largest room over the PEs that can host [v] at II = 1 (0 when
   none can). *)
let max_room (p : Problem.t) rooms v =
  let best = ref 0 in
  Array.iteri (fun pe r -> if hosts p v pe then best := max !best r) rooms;
  !best

let neighbourhood (p : Problem.t) =
  let rooms = Array.init (Cgra.pe_count p.cgra) (room p.cgra) in
  List.find_map
    (fun v ->
      let degree = degree p.dfg v and room = max_room p rooms v in
      if degree > room then Some (Neighbourhood { node = v; degree; room }) else None)
    (List.init (Dfg.node_count p.dfg) Fun.id)

(* ---- rule 3: embedding at a tight II = 1 ---- *)

(* Search nodes each embedder may visit.  The host has one node per PE,
   so a complete search of a library kernel takes far fewer. *)
let embedding_budget = 200_000

(* The DFG edges an embedding must preserve: no self-loops. *)
let pattern_edges (p : Problem.t) =
  List.filter_map
    (fun (e : Dfg.edge) -> if e.src <> e.dst then Some (e.src, e.dst) else None)
    (Dfg.edges p.dfg)

let vf2_embedding ?(budget = embedding_budget) (p : Problem.t) =
  let pattern = Ocgra_graph.Digraph.create () in
  ignore (Ocgra_graph.Digraph.add_nodes pattern (Dfg.node_count p.dfg));
  List.iter
    (fun (s, d) -> Ocgra_graph.Digraph.add_edge pattern s d)
    (List.sort_uniq compare (pattern_edges p));
  Ocgra_graph.Iso.search ~max_steps:budget ~compatible:(hosts p) pattern
    (Cgra.connectivity_graph p.cgra)

(* Ops in breadth-first order over the undirected DFG, each component
   from its lowest-numbered op, so every op after a component's first
   has a placed neighbour to constrain it. *)
let bfs_order (p : Problem.t) edges =
  let n = Dfg.node_count p.dfg in
  let adj = Array.make n [] in
  List.iter
    (fun (s, d) ->
      adj.(s) <- d :: adj.(s);
      adj.(d) <- s :: adj.(d))
    edges;
  let seen = Array.make n false and order = ref [] in
  for root = 0 to n - 1 do
    if not seen.(root) then begin
      let queue = Queue.create () in
      seen.(root) <- true;
      Queue.add root queue;
      while not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        order := v :: !order;
        List.iter
          (fun w ->
            if not seen.(w) then begin
              seen.(w) <- true;
              Queue.add w queue
            end)
          (List.sort_uniq compare adj.(v))
      done
    end
  done;
  Array.of_list (List.rev !order)

(* The checker's embedder: plain backtracking, ops in [bfs_order], PEs
   in index order, no pruning beyond the constraints themselves.  An op
   goes on a free PE that hosts it and is linked, in each edge's
   direction, to the PE of every DFG neighbour already placed. *)
let dfs_embedding ?(budget = embedding_budget) (p : Problem.t) =
  let n = Dfg.node_count p.dfg and npe = Cgra.pe_count p.cgra in
  let link =
    Array.init npe (fun a -> Array.init npe (fun b -> List.mem b (Cgra.neighbours p.cgra a)))
  in
  let edges = pattern_edges p in
  let order = bfs_order p edges in
  let at = Array.make n (-1) and used = Array.make npe false in
  let nodes = ref 0 in
  let fits v q =
    List.for_all
      (fun (s, d) ->
        if d = v && at.(s) >= 0 then link.(at.(s)).(q)
        else if s = v && at.(d) >= 0 then link.(q).(at.(d))
        else true)
      edges
  in
  let exception Stop of bool (* true: embedded; false: out of budget *) in
  let rec place i =
    incr nodes;
    if !nodes > budget then raise (Stop false);
    if i = n then raise (Stop true);
    let v = order.(i) in
    for q = 0 to npe - 1 do
      if (not used.(q)) && hosts p v q && fits v q then begin
        at.(v) <- q;
        used.(q) <- true;
        place (i + 1);
        at.(v) <- -1;
        used.(q) <- false
      end
    done
  in
  match place 0 with
  | () -> (Ocgra_graph.Iso.Absent, !nodes)
  | exception Stop true -> (Ocgra_graph.Iso.Found (Array.copy at), !nodes)
  | exception Stop false -> (Ocgra_graph.Iso.Exhausted, budget)

(* Fires only on a tight count; the checker's search runs only after
   VF2 has found nothing, to record its node count. *)
let embedding ?budget (p : Problem.t) =
  let n = Dfg.node_count p.dfg in
  if n <> live_slots p ~ii:1 || Option.map fst (min_hops p ~ii:1) <> Some 0 then None
  else
    match vf2_embedding ?budget p with
    | Ocgra_graph.Iso.Absent, vf2_nodes -> (
        match dfs_embedding ?budget p with
        | Ocgra_graph.Iso.Absent, dfs_nodes ->
            Some (Embedding { ops = n; slots = n; vf2_nodes; dfs_nodes })
        | (Ocgra_graph.Iso.Found _ | Ocgra_graph.Iso.Exhausted), _ -> None)
    | (Ocgra_graph.Iso.Found _ | Ocgra_graph.Iso.Exhausted), _ -> None

let refute ?budget p ~ii =
  let rule =
    match slot_count p ~ii with
    | Some r -> Some r
    | None when ii = 1 -> (
        match neighbourhood p with Some r -> Some r | None -> embedding ?budget p)
    | None -> None
  in
  Option.map (fun rule -> { ii; model = Fu_hop; rule }) rule

let check ?budget (p : Problem.t) c =
  let n = Dfg.node_count p.dfg in
  c.model = Fu_hop && c.ii >= 1
  &&
  match c.rule with
  | Slot_count { needed; live; y } -> (
      live = live_slots p ~ii:c.ii
      && needed > live
      &&
      match hop_bound p.dfg ~ii:c.ii (Array.of_list (Dfg.edges p.dfg)) y with
      | Some h -> needed = n + h
      | None -> false)
  | Neighbourhood { node; degree = d; room = r } ->
      c.ii = 1 && node >= 0 && node < n
      && d = degree p.dfg node
      && r = max_room p (Array.init (Cgra.pe_count p.cgra) (room p.cgra)) node
      && d > r
  | Embedding { ops; slots; vf2_nodes = _; dfs_nodes } -> (
      c.ii = 1 && ops = n
      && slots = live_slots p ~ii:1
      && ops = slots
      &&
      match dfs_embedding ?budget p with
      | Ocgra_graph.Iso.Absent, nodes -> nodes = dfs_nodes
      | (Ocgra_graph.Iso.Found _ | Ocgra_graph.Iso.Exhausted), _ -> false)

let first_open p ~from ~upto =
  let rec go ii acc =
    if ii > upto then (ii, List.rev acc)
    else
      match refute p ~ii with
      | Some c when check p c -> go (ii + 1) (c :: acc)
      | Some _ | None -> (ii, List.rev acc)
  in
  go from []

let to_string (p : Problem.t) c =
  let why =
    match c.rule with
    | Slot_count { needed; live; _ } -> Printf.sprintf "slot count %d > %d" needed live
    | Neighbourhood { node; degree; room } ->
        Printf.sprintf "neighbourhood: %s (%s) has %d neighbours > room %d"
          (Dfg.name p.dfg node) (Op.to_string (Dfg.op p.dfg node)) degree room
    | Embedding { ops; slots; vf2_nodes; dfs_nodes } ->
        Printf.sprintf
          "embedding: %d ops fill %d slots, no hop-free placement (search nodes: VF2 %d, DFS %d)"
          ops slots vf2_nodes dfs_nodes
  in
  Printf.sprintf "II=%d refuted by %s [%s]" c.ii why (route_model_to_string c.model)
