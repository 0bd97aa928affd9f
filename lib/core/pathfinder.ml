(* Negotiated-congestion routing (the PathFinder algorithm CGRA
   mappers inherit from the FPGA world; SPR [49] is its direct CGRA
   port).

   Given a fixed binding, all edges are routed simultaneously against
   soft resource prices: every iteration, each edge takes its cheapest
   route under current prices; resources used by more than their
   capacity raise their history price, and the loop repeats until no
   resource is over-subscribed or the iteration budget runs out.  This
   succeeds on bindings where one-edge-at-a-time strict routing paints
   itself into a corner.

   The resources are the cells of an [Occupancy] ledger.  Its claims
   (the bindings, dead silicon, and the routes an incremental caller
   froze) are hard obstacles, and its RF load is baseline pressure;
   the prices are flat arrays over the same cells.  [?only] restricts
   the rip-up/re-route set to the given edge indices, with
   [?init_routes] supplying the untouched routes of the rest — the
   repair path of [Repair] negotiates a handful of broken edges
   against an otherwise frozen mapping this way. *)

open Ocgra_dfg
open Ocgra_arch

let route_all ?(obs = Ocgra_obs.Ctx.off) ?only ?init_routes (p : Problem.t) (occ : Occupancy.t)
    (binding : (int * int) array) ~max_iters =
  let cgra = p.cgra and ii = occ.ii in
  let ws = Route.workspace cgra in
  let edges = Array.of_list (Dfg.edges p.dfg) in
  let negotiated =
    match only with
    | None -> Array.init (Array.length edges) Fun.id
    | Some l -> Array.of_list l
  in
  (* per ledger cell: route users this round, and accumulated history *)
  let cells = Array.length occ.fu in
  let fu_present = Array.make cells 0 and fu_history = Array.make cells 0 in
  let rf_present = Array.make cells 0 and rf_history = Array.make cells 0 in
  let rf_size = Array.init occ.npe (Cgra.effective_rf_size cgra) in
  let routes =
    match init_routes with
    | Some init -> Array.copy init
    | None -> Array.make (Array.length edges) []
  in
  (* only the negotiated set participates in pricing; kept routes are
     hard obstacles through the ledger, never re-priced or ripped up *)
  Array.iter (fun e -> routes.(e) <- []) negotiated;
  let apply_route_prices sign route =
    List.iter
      (function
        | Mapping.Hop { pe; time } ->
            let i = Occupancy.cell occ ~pe ~time in
            fu_present.(i) <- fu_present.(i) + sign
        | Mapping.Hold { pe; from_; until } ->
            for cy = from_ + 1 to until do
              let i = Occupancy.cell occ ~pe ~time:cy in
              rf_present.(i) <- rf_present.(i) + sign
            done)
      route
  in
  let cost_model =
    {
      Route.fu_cost =
        (fun pe time ->
          let i = Occupancy.cell occ ~pe ~time in
          if occ.fu.(i) <> None then None
          else Some (4 + (30 * fu_present.(i)) + (8 * fu_history.(i))));
      rf_cost =
        (fun pe time ->
          let size = rf_size.(pe) in
          if size = 0 then None
          else begin
            let i = Occupancy.cell occ ~pe ~time in
            let over = max 0 (occ.rf.(i) + rf_present.(i) - size + 1) in
            Some (1 + (30 * over) + (4 * rf_history.(i)))
          end);
    }
  in
  let route_edge e =
    let edge = edges.(e) in
    let src = binding.(edge.src) and dst = binding.(edge.dst) in
    let lat = Op.latency (Dfg.op p.dfg edge.src) in
    Route.route_edge ws cost_model ~ii ~src ~dst ~lat ~dist:edge.dist
  in
  (* over-capacity units under current presence; claimed FU slots are
     hard obstacles, so route presence only competes with other routes *)
  let overused () =
    let over = ref 0 in
    for i = 0 to cells - 1 do
      over :=
        !over + max 0 (fu_present.(i) - 1) + max 0 (occ.rf.(i) + rf_present.(i) - rf_size.(i / ii))
    done;
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
        for i = 0 to cells - 1 do
          fu_history.(i) <- fu_history.(i) + max 0 (fu_present.(i) - 1);
          rf_history.(i) <- rf_history.(i) + max 0 (occ.rf.(i) + rf_present.(i) - rf_size.(i / ii))
        done;
        negotiate (iter + 1)
      end
    end
  in
  negotiate 0
