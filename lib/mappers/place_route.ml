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
  mutable searches : int; (* router searches run by [place] *)
}

let create (problem : Problem.t) ~ii =
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
    ws = Route.workspace problem.cgra;
    searches = 0;
  }

let is_placed t v = t.placed.(v)
let binding_of t v = t.binding.(v)

(* Claim a route's resources, rolling back on internal conflict (a
   route that wraps around the II can collide with itself). *)
let try_claim_route t edge_idx (route : Mapping.route) =
  let cgra = t.problem.cgra in
  let claimed = ref [] in
  let ok = ref true in
  List.iter
    (fun step ->
      if !ok then
        match step with
        | Mapping.Hop { pe; time } ->
            if Occupancy.fu_free t.occ ~pe ~time then begin
              Occupancy.claim_fu t.occ ~pe ~time (Occupancy.U_route edge_idx);
              claimed := step :: !claimed
            end
            else ok := false
        | Mapping.Hold { pe; from_; until } ->
            (* claim cycle by cycle: a hold spanning >= II cycles lands
               several times on the same modulo slot, so a single
               up-front capacity test would under-count its own load *)
            let size = Cgra.effective_rf_size cgra pe in
            let rec claim_cycles cy =
              if cy > until then true
              else if Occupancy.rf_count t.occ ~pe ~time:cy < size then begin
                Occupancy.claim_hold t.occ ~pe ~from_:(cy - 1) ~until:cy;
                claimed := Mapping.Hold { pe; from_ = cy - 1; until = cy } :: !claimed;
                claim_cycles (cy + 1)
              end
              else false
            in
            if not (claim_cycles (from_ + 1)) then ok := false)
    route;
  if !ok then begin
    t.routes.(edge_idx) <- Some route;
    true
  end
  else begin
    List.iter
      (function
        | Mapping.Hop { pe; time } -> Occupancy.release_fu t.occ ~pe ~time
        | Mapping.Hold { pe; from_; until } -> Occupancy.release_hold t.occ ~pe ~from_ ~until)
      !claimed;
    false
  end

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
  | Some (route, _) -> try_claim_route t edge_idx route

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

(* Earliest feasible start time of [v] on [pe] given the already placed
   neighbours (dependence timing with hop-count lower bounds), and the
   latest deadline imposed by placed successors.  Returns (est, lst);
   est > lst means no window. *)
let time_window t hop_table v pe =
  let dfg = t.problem.dfg in
  let est = ref 0 and lst = ref (Problem.max_time t.problem - 1) in
  List.iter
    (fun i ->
      let e = t.edges.(i) in
      (* a value readable at cycle a on PE p can first be consumed on PE
         q at cycle a + max(0, hops(p,q) - 1): the consumer reads from a
         neighbour's output register, so the last hop is free *)
      if e.dst = v && t.placed.(e.src) && e.src <> v then begin
        let pu, tu = t.binding.(e.src) in
        let lat = Op.latency (Dfg.op dfg e.src) in
        let hops = hop_table.(pu).(pe) in
        if hops < Cgra.unreachable then
          est := max !est (tu + lat + max 0 (hops - 1) - (e.dist * t.ii))
      end;
      if e.src = v && t.placed.(e.dst) && e.dst <> v then begin
        let pw, tw = t.binding.(e.dst) in
        let lat = Op.latency (Dfg.op dfg v) in
        let hops = hop_table.(pe).(pw) in
        if hops < Cgra.unreachable then
          lst := min !lst (tw + (e.dist * t.ii) - lat - max 0 (hops - 1))
      end)
    t.incident.(v);
  (max 0 !est, !lst)
