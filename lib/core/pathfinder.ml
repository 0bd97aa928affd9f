(* Negotiated-congestion routing (the PathFinder algorithm CGRA
   mappers inherit from the FPGA world; SPR [49] is its direct CGRA
   port).

   Given a fixed binding, all edges are routed simultaneously against
   soft resource prices: every iteration, each edge takes its cheapest
   route under current prices; resources used by more than their
   capacity raise their history price, and the loop repeats until no
   resource is over-subscribed or the iteration budget runs out.  This
   succeeds on bindings where one-edge-at-a-time strict routing paints
   itself into a corner. *)

open Ocgra_dfg
open Ocgra_arch

type prices = {
  fu_present : (int * int, int) Hashtbl.t; (* (pe, slot) -> users this round *)
  fu_history : (int * int, int) Hashtbl.t;
  rf_present : (int * int, int) Hashtbl.t;
  rf_history : (int * int, int) Hashtbl.t;
}

let get tbl key = Option.value ~default:0 (Hashtbl.find_opt tbl key)
let bump tbl key by = Hashtbl.replace tbl key (get tbl key + by)

(* [?frozen] carries pre-claimed resources the negotiation must treat
   as hard obstacles (an incremental caller's healthy bindings and
   routes, plus the [U_fault] claims) and whose RF pressure is baseline
   load; [?only] restricts the rip-up/re-route set to the given edge
   indices, with [?init_routes] supplying the untouched routes of the
   rest — the repair path of [Repair] negotiates a handful of broken
   edges against an otherwise frozen mapping this way.  With none of
   the three, the behaviour is the original whole-mapping negotiation. *)
let route_all ?(obs = Ocgra_obs.Ctx.off) ?frozen ?only ?init_routes (p : Problem.t) ~ii
    (binding : (int * int) array) ~max_iters =
  let cgra = p.cgra in
  let ws = Route.workspace cgra in
  let edges = Array.of_list (Dfg.edges p.dfg) in
  let slot time = ((time mod ii) + ii) mod ii in
  let negotiated =
    match only with
    | None -> Array.init (Array.length edges) Fun.id
    | Some l -> Array.of_list l
  in
  let frozen_fu pe time =
    match frozen with
    | None -> false
    | Some occ -> Occupancy.fu_user occ ~pe ~time <> None
  in
  let frozen_rf pe time =
    match frozen with None -> 0 | Some occ -> Occupancy.rf_count occ ~pe ~time
  in
  let prices =
    {
      fu_present = Hashtbl.create 64;
      fu_history = Hashtbl.create 64;
      rf_present = Hashtbl.create 64;
      rf_history = Hashtbl.create 64;
    }
  in
  (* FU slots taken by operations — or dead silicon — are never
     available to routes *)
  let node_slots = Hashtbl.create 64 in
  Array.iter (fun (pe, time) -> Hashtbl.replace node_slots (pe, slot time) ()) binding;
  for pe = 0 to Cgra.pe_count cgra - 1 do
    if not (Cgra.pe_ok cgra pe) then
      for s = 0 to ii - 1 do
        Hashtbl.replace node_slots (pe, s) ()
      done
    else
      List.iter
        (fun s -> if s < ii then Hashtbl.replace node_slots (pe, s) ())
        (Cgra.dead_slots cgra ~pe)
  done;
  let routes =
    match init_routes with
    | Some init -> Array.copy init
    | None -> Array.make (Array.length edges) []
  in
  (* only the negotiated set participates in pricing; kept routes are
     hard obstacles through [frozen], never re-priced or ripped up *)
  Array.iter (fun e -> routes.(e) <- []) negotiated;
  let apply_route_prices sign route =
    List.iter
      (fun step ->
        match step with
        | Mapping.Hop { pe; time } -> bump prices.fu_present (pe, slot time) sign
        | Mapping.Hold { pe; from_; until } ->
            List.iter
              (fun cy -> bump prices.rf_present (pe, slot cy) sign)
              (Occupancy.hold_span ~from_ ~until))
      route
  in
  let cost_model =
    {
      Route.fu_cost =
        (fun pe time ->
          let key = (pe, slot time) in
          if Hashtbl.mem node_slots key || frozen_fu pe time then
            None (* operations and frozen claims are hard obstacles *)
          else
            Some (4 + (30 * get prices.fu_present key) + (8 * get prices.fu_history key)));
      rf_cost =
        (fun pe time ->
          let key = (pe, slot time) in
          let size = Cgra.effective_rf_size cgra pe in
          if size = 0 then None
          else begin
            let over = max 0 (frozen_rf pe time + get prices.rf_present key - size + 1) in
            Some (1 + (30 * over) + (4 * get prices.rf_history key))
          end);
    }
  in
  let route_edge e =
    let edge = edges.(e) in
    let src = binding.(edge.src) and dst = binding.(edge.dst) in
    let lat = Op.latency (Dfg.op p.dfg edge.src) in
    Route.route_edge ws cost_model ~ii ~src ~dst ~lat ~dist:edge.dist
  in
  let overused () =
    (* count over-capacity resources under current presence *)
    let over = ref 0 in
    (* node slots are hard obstacles in the cost model, so route presence
       only ever competes with other routes *)
    Hashtbl.iter (fun _key c -> over := !over + max 0 (c - 1)) prices.fu_present;
    Hashtbl.iter
      (fun (pe, s) c ->
        let size = Cgra.effective_rf_size cgra pe in
        let c = c + frozen_rf pe s in
        if c > size then over := !over + (c - size))
      prices.rf_present;
    !over
  in
  let rec negotiate iter =
    if iter >= max_iters then None
    else begin
      (* rip up and re-route every negotiated edge under current prices *)
      Ocgra_obs.Ctx.incr obs "pathfinder.iterations";
      (* distribution of rip-up sizes and of congestion at each
         iteration: full route_all runs rip everything, repair runs a
         handful of broken edges — the histogram shows which *)
      if Ocgra_obs.Hist.enabled (Ocgra_obs.Ctx.hists obs) then begin
        Ocgra_obs.Ctx.observe obs "pathfinder.ripup" (Array.length negotiated);
        Ocgra_obs.Ctx.observe obs "pathfinder.overuse" (overused ())
      end;
      let ok = ref true in
      Array.iter
        (fun e ->
          apply_route_prices (-1) routes.(e);
          routes.(e) <- [];
          match route_edge e with
          | Some (r, _) ->
              routes.(e) <- r;
              apply_route_prices 1 r
          | None -> ok := false)
        negotiated;
      if not !ok then None
      else if overused () = 0 then begin
        let m = { Mapping.ii; binding = Array.copy binding; routes = Array.copy routes } in
        match Check.validate p m with [] -> Some m | _ -> None
      end
      else begin
        (* raise history on every over-used resource *)
        Hashtbl.iter
          (fun key c -> if c > 1 then bump prices.fu_history key (c - 1))
          prices.fu_present;
        Hashtbl.iter
          (fun (pe, s) c ->
            let size = Cgra.effective_rf_size cgra pe in
            if c > size then bump prices.rf_history (pe, s) (c - size))
          prices.rf_present;
        negotiate (iter + 1)
      end
    end
  in
  negotiate 0
