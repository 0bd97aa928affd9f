(* Structural presolve: refute a candidate II of the exact temporal
   sweep without search, with a certificate an integer checker
   re-verifies.

   Both rules hold for the FU-hop route model of the SAT encoding: a
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
      so both directions count towards a PE's room. *)

open Ocgra_dfg
open Ocgra_arch

type route_model = Fu_hop

let route_model_to_string Fu_hop = "fu-hop"

type rule =
  | Slot_count of { needed : int; live : int; y : int array }
  | Neighbourhood of { node : int; degree : int; room : int }

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

let slot_count (p : Problem.t) ~ii =
  let edges = Array.of_list (Dfg.edges p.dfg) in
  match min_hop_multipliers p.dfg ~ii edges with
  | None -> None
  | Some y -> (
      match hop_bound p.dfg ~ii edges y with
      | None -> None
      | Some h ->
          let needed = Dfg.node_count p.dfg + h and live = live_slots p ~ii in
          if needed > live then Some (Slot_count { needed; live; y }) else None)

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

(* Live single-slot PEs adjacent to [q] in either direction. *)
let room cgra q =
  let live s = Cgra.pe_ok cgra s && Cgra.slot_ok cgra ~pe:s ~ii:1 ~time:0 in
  let count = ref 0 in
  for s = 0 to Cgra.pe_count cgra - 1 do
    if s <> q && live s
       && (List.mem s (Cgra.neighbours cgra q) || List.mem q (Cgra.neighbours cgra s))
    then incr count
  done;
  !count

(* The largest room over the PEs that can host [v] at II = 1 (0 when
   none can). *)
let max_room (p : Problem.t) rooms v =
  let op = Dfg.op p.dfg v in
  let best = ref 0 in
  Array.iteri
    (fun pe r ->
      if Cgra.supports p.cgra pe op && Cgra.slot_ok p.cgra ~pe ~ii:1 ~time:0 then
        best := max !best r)
    rooms;
  !best

let neighbourhood (p : Problem.t) =
  let rooms = Array.init (Cgra.pe_count p.cgra) (room p.cgra) in
  List.find_map
    (fun v ->
      let degree = degree p.dfg v and room = max_room p rooms v in
      if degree > room then Some (Neighbourhood { node = v; degree; room }) else None)
    (List.init (Dfg.node_count p.dfg) Fun.id)

let refute p ~ii =
  let rule =
    match slot_count p ~ii with
    | Some r -> Some r
    | None -> if ii = 1 then neighbourhood p else None
  in
  Option.map (fun rule -> { ii; model = Fu_hop; rule }) rule

let check (p : Problem.t) c =
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
  in
  Printf.sprintf "II=%d refuted by %s [%s]" c.ii why (route_model_to_string c.model)
