(* Incremental place-and-route state shared by the constructive
   mappers: claim a node on an FU slot, route every dependence whose
   other endpoint is already placed, roll back cleanly on failure.

   This is the CGRA equivalent of the FPGA place-and-route inner loop
   the survey points to as one ancestor of the field. *)

open Ocgra_dfg
open Ocgra_arch
open Ocgra_core

type t = {
  problem : Problem.t;
  ii : int;
  occ : Occupancy.t;
  binding : (int * int) array; (* node -> (pe, time); (-1, -1) = unplaced *)
  placed : bool array;
  routes : Mapping.route option array; (* per edge index *)
  edges : Dfg.edge array;
  incident : int list array; (* node -> indices of incident edges *)
  ws : Route.workspace; (* the router buffers of [route_edge]'s searches *)
  mutable searches : int; (* router searches run by [place] and [reach] *)
}

let create ~ws (problem : Problem.t) ~ii =
  let dfg = problem.dfg in
  let n = Dfg.node_count dfg in
  let edges = Array.of_list (Dfg.edges dfg) in
  let incident = Array.make n [] in
  Array.iteri
    (fun i (e : Dfg.edge) ->
      incident.(e.src) <- i :: incident.(e.src);
      if e.dst <> e.src then incident.(e.dst) <- i :: incident.(e.dst))
    edges;
  {
    problem;
    ii;
    occ = Occupancy.create ~cgra:problem.cgra ~npe:(Cgra.pe_count problem.cgra) ~ii ();
    binding = Array.make n (-1, -1);
    placed = Array.make n false;
    routes = Array.make (Array.length edges) None;
    edges;
    incident;
    ws;
    searches = 0;
  }

let is_placed t v = t.placed.(v)
let binding_of t v = t.binding.(v)

let release_edge t edge_idx =
  match t.routes.(edge_idx) with
  | None -> ()
  | Some route ->
      Occupancy.release_route t.occ route;
      t.routes.(edge_idx) <- None

(* Route one edge whose endpoints are both placed. *)
let route_edge t edge_idx =
  let e = t.edges.(edge_idx) in
  let src = t.binding.(e.src) and dst = t.binding.(e.dst) in
  let lat = Op.latency (Dfg.op t.problem.dfg e.src) in
  let cm = Route.strict t.problem.cgra t.occ in
  t.searches <- t.searches + 1;
  match Route.route_edge t.ws cm ~ii:t.ii ~src ~dst ~lat ~dist:e.dist with
  | None -> false
  | Some (route, _) ->
      Occupancy.try_claim_route t.problem.cgra t.occ edge_idx route
      && begin
           t.routes.(edge_idx) <- Some route;
           true
         end

(* Place node [v] at (pe, time) and route all its edges toward already
   placed endpoints; rolls everything back and returns false on any
   failure. *)
let place t v ~pe ~time =
  let dfg = t.problem.dfg in
  let op = Dfg.op dfg v in
  if t.placed.(v) then invalid_arg "Place_route.place: node already placed";
  if not (Cgra.supports t.problem.cgra pe op) then false
  else if time < 0 || time >= Problem.max_time t.problem then false
  else if not (Occupancy.fu_free t.occ ~pe ~time) then false
  else begin
    Occupancy.claim_fu t.occ ~pe ~time (Occupancy.U_node v);
    t.binding.(v) <- (pe, time);
    t.placed.(v) <- true;
    let to_route =
      List.filter
        (fun i ->
          let e = t.edges.(i) in
          t.placed.(e.src) && t.placed.(e.dst) && t.routes.(i) = None)
        t.incident.(v)
    in
    let rec route_all routed = function
      | [] -> true
      | i :: rest ->
          if route_edge t i then route_all (i :: routed) rest
          else begin
            List.iter (release_edge t) routed;
            false
          end
    in
    if route_all [] to_route then true
    else begin
      Occupancy.release_fu t.occ ~pe ~time;
      t.binding.(v) <- (-1, -1);
      t.placed.(v) <- false;
      false
    end
  end

(* The in-edge reachability fields of an unplaced node: per in-edge
   from a placed producer (self-loops excluded), the layer offset of a
   consumer cycle ([time + shift]) and the strict search from that
   producer over the occupancy as it stood, or [None] when even the
   latest cycle is earlier than the value is readable.

   Why rejecting on them is exact: [place] searches the same edge from
   the same producer, under this occupancy plus the node's own slot
   plus the routes of its earlier edges.  Claims only ever turn a
   strict price from [Some] into [None], and a layer's costs depend on
   the layers before it only, so a goal this field cannot reach no
   search of [place] reaches either.  A failed [place] rolls back
   exactly, so the fields hold until the next success. *)
type reach = (int * Route.field option) list

let reach t wss v ~latest =
  let dfg = t.problem.dfg in
  let cm = Route.strict t.problem.cgra t.occ in
  let k = ref 0 in
  List.filter_map
    (fun i ->
      let e = t.edges.(i) in
      if e.dst <> v || e.src = v || not t.placed.(e.src) then None
      else begin
        let pu, tu = t.binding.(e.src) in
        let avail = tu + Op.latency (Dfg.op dfg e.src) in
        let shift = (e.dist * t.ii) - avail in
        let layers = latest + shift in
        if layers < 0 then Some (shift, None)
        else begin
          let ws = wss.(!k) in
          incr k;
          t.searches <- t.searches + 1;
          Some (shift, Some (Route.explore ws ~ii:t.ii cm ~src_pe:pu ~avail ~layers))
        end
      end)
    t.incident.(v)

(* Whether every field reaches a state a consumer on [pe] at [time] can
   read; a cycle past a field's depth is not decided by it. *)
let reachable (r : reach) ~pe ~time =
  List.for_all
    (fun (shift, field) ->
      let layer = time + shift in
      layer >= 0
      &&
      match field with
      | Some (f : Route.field) when layer <= f.layers ->
          Route.goal_state f ~dst_pe:pe ~layer <> None
      | _ -> true)
    r

let unplace t v =
  if t.placed.(v) then begin
    let pe, time = t.binding.(v) in
    (* release the routes of incident edges first *)
    List.iter (fun i -> release_edge t i) t.incident.(v);
    Occupancy.release_fu t.occ ~pe ~time;
    t.binding.(v) <- (-1, -1);
    t.placed.(v) <- false
  end

let to_mapping t =
  if not (Array.for_all Fun.id t.placed) then None
  else begin
    let routes =
      Array.map (function Some r -> r | None -> []) t.routes
    in
    Some { Mapping.ii = t.ii; binding = Array.copy t.binding; routes }
  end

(* The placed neighbours of one node, gathered once per node so that
   the window and the proximity of each candidate PE are loops over
   flat buffers instead of walks over the incident edges.  A
   predecessor u -> v is kept as its PE and the cycle its value is
   readable there, shifted back by the edge's iteration distance; a
   successor v -> w as its PE and the latest cycle v's result may be
   ready for it.  Self-loops are neither. *)
type near = {
  hops : int array array;
  horizon : int; (* latest start cycle of the problem *)
  pred_pe : int array;
  pred_ready : int array;
  mutable preds : int;
  succ_pe : int array;
  succ_due : int array;
  mutable succs : int;
}

let near (p : Problem.t) =
  let degree = Array.make (Dfg.node_count p.dfg) 0 in
  Dfg.iter_edges
    (fun e ->
      if e.src <> e.dst then begin
        degree.(e.src) <- degree.(e.src) + 1;
        degree.(e.dst) <- degree.(e.dst) + 1
      end)
    p.dfg;
  let size = Array.fold_left max 0 degree in
  {
    hops = Cgra.hop_table p.cgra;
    horizon = Problem.max_time p - 1;
    pred_pe = Array.make size 0;
    pred_ready = Array.make size 0;
    preds = 0;
    succ_pe = Array.make size 0;
    succ_due = Array.make size 0;
    succs = 0;
  }

let gather t n v =
  let dfg = t.problem.dfg in
  n.preds <- 0;
  n.succs <- 0;
  List.iter
    (fun i ->
      let e = t.edges.(i) in
      if e.dst = v && e.src <> v && t.placed.(e.src) then begin
        let pu, tu = t.binding.(e.src) in
        n.pred_pe.(n.preds) <- pu;
        n.pred_ready.(n.preds) <- tu + Op.latency (Dfg.op dfg e.src) - (e.dist * t.ii);
        n.preds <- n.preds + 1
      end;
      if e.src = v && e.dst <> v && t.placed.(e.dst) then begin
        let pw, tw = t.binding.(e.dst) in
        n.succ_pe.(n.succs) <- pw;
        n.succ_due.(n.succs) <- tw + (e.dist * t.ii) - Op.latency (Dfg.op dfg v);
        n.succs <- n.succs + 1
      end)
    t.incident.(v)

(* The window rule: a value readable at cycle a on PE p can first be
   consumed on PE q at cycle a + max(0, hops(p,q) - 1), since the
   consumer reads from a neighbour's output register and the last hop
   is free.  A neighbour with no path bounds nothing. *)
let est n pe =
  let est = ref 0 in
  for k = 0 to n.preds - 1 do
    let hops = n.hops.(n.pred_pe.(k)).(pe) in
    if hops < Cgra.unreachable then est := max !est (n.pred_ready.(k) + max 0 (hops - 1))
  done;
  !est

let lst n pe =
  let lst = ref n.horizon in
  for k = 0 to n.succs - 1 do
    let hops = n.hops.(pe).(n.succ_pe.(k)) in
    if hops < Cgra.unreachable then lst := min !lst (n.succ_due.(k) - max 0 (hops - 1))
  done;
  !lst

let proximity n pe =
  let sum = ref 0 and counted = ref 0 in
  for k = 0 to n.preds - 1 do
    let h = n.hops.(n.pred_pe.(k)).(pe) in
    if h < Cgra.unreachable then begin
      sum := !sum + h;
      incr counted
    end
  done;
  for k = 0 to n.succs - 1 do
    let h = n.hops.(pe).(n.succ_pe.(k)) in
    if h < Cgra.unreachable then begin
      sum := !sum + h;
      incr counted
    end
  done;
  if !counted > 0 then !sum else -1
