(* Edge-centric modulo scheduling (EMS, Park et al. [37]).

   Instead of picking a slot for an operation and then routing its
   operands, the router drives placement: for each unplaced consumer,
   the cost field of a routing search from its (already placed) primary
   producer is explored, and the consumer lands on the cheapest
   reachable (PE, cycle) — routing failures are discovered before
   commitment rather than after.  The field is read while [place] runs
   searches of its own, so it lives in a router workspace of its own,
   next to the one the place-and-route states search in. *)

open Ocgra_dfg
open Ocgra_core
module Rng = Ocgra_util.Rng

let attempt (p : Problem.t) ~place_ws ~near ws rng ~ii =
  let state = Place_route.create ~ws:place_ws p ~ii in
  let cgra = p.cgra in
  let order = Constructive.topo_order_by_height rng p.dfg in
  let horizon = Problem.max_time p in
  let edges = Array.of_list (Dfg.edges p.dfg) in
  let ok =
    List.for_all
      (fun v ->
        let capable = Ocgra_arch.Cgra.capable_pes cgra (Dfg.op p.dfg v) in
        (* primary producer: the placed predecessor with the latest
           ready time *)
        let preds =
          List.filter_map
            (fun i ->
              let e = edges.(i) in
              if e.dst = v && e.src <> v && Place_route.is_placed state e.src then Some e else None)
            (List.init (Array.length edges) Fun.id)
        in
        let primary =
          List.fold_left
            (fun acc (e : Dfg.edge) ->
              let _, tu = Place_route.binding_of state e.src in
              match acc with
              | None -> Some (e, tu)
              | Some (_, best) -> if tu > best then Some (e, tu) else acc)
            None preds
        in
        match primary with
        | None ->
            (* source node: greedy placement *)
            let shuffled = Array.to_list (Rng.shuffle rng (Array.of_list capable)) in
            Place_route.gather state near v;
            List.exists
              (fun pe ->
                let est = Place_route.est near pe and lst = Place_route.lst near pe in
                let rec try_time t =
                  t <= min lst (est + (2 * ii)) && (Place_route.place state v ~pe ~time:t || try_time (t + 1))
                in
                est <= lst && try_time est)
              shuffled
        | Some (e, tu) ->
            let pu, _ = Place_route.binding_of state e.src in
            let lat = Op.latency (Dfg.op p.dfg e.src) in
            let avail = tu + lat in
            let max_layers = min (3 * ii + 4) (horizon - avail - 1) in
            if max_layers < 0 then false
            else begin
              let cm = Route.strict cgra state.occ in
              let field = Route.explore ws ~ii cm ~src_pe:pu ~avail ~layers:max_layers in
              (* candidate slots ordered by routing cost from the primary
                 producer, then by time *)
              let candidates = ref [] in
              for layer = 0 to max_layers do
                let t = avail + layer - (e.dist * ii) in
                if t >= 0 && t < horizon then
                  List.iter
                    (fun pe ->
                      match Route.goal_state field ~dst_pe:pe ~layer with
                      | Some (_, c) -> candidates := (c, layer, Rng.int rng 8, pe, t) :: !candidates
                      | None -> ())
                    capable
              done;
              let candidates = List.sort compare !candidates in
              List.exists
                (fun (_, _, _, pe, t) -> Place_route.place state v ~pe ~time:t)
                candidates
            end)
      order
  in
  if ok then Place_route.to_mapping state else None

let mapper =
  Mapper.make ~name:"edge-centric" ~citation:"Park et al. EMS [37]"
    ~scope:Taxonomy.Temporal_mapping ~approach:Taxonomy.Heuristic
    (fun p rng dl obs ->
      let place_ws = Route.workspace p.cgra and ws = Route.workspace p.cgra in
      let near = Place_route.near p in
      let attempts = ref 0 in
      let restart ~ii ~span =
        Mapper.tries 8 dl (fun _ ->
            incr attempts;
            Mapper.mapped_or_gave_up (span (fun () -> attempt p ~place_ws ~near ws rng ~ii)))
      in
      let m, proven =
        match p.kind with
        | Problem.Spatial -> (restart ~ii:1 ~span:(fun f -> f ()), false)
        | Problem.Temporal { max_ii; _ } ->
            let span ii = Ocgra_obs.Ctx.span obs ~cat:"ems" (Printf.sprintf "ems:ii=%d" ii) in
            let s =
              Mapper.sweep ~max_ii dl p (fun ii ->
                  Mapper.mapped_or_gave_up (restart ~ii ~span:(span ii)))
            in
            (s.found, s.proven)
      in
      Ocgra_obs.Ctx.add obs "ems.attempts" !attempts;
      Mapper.outcome ~proven ~attempts:!attempts m
        ~note:"routing-driven slot selection (edge-centric)")
