(* Incremental mapping repair under fault masks.

   A production mapping service cannot afford to re-solve from scratch
   every time the array degrades: PEs, links, FU slots and RF entries
   fail one at a time, and the cached mapping is almost entirely still
   legal.  This module salvages a previously checker-valid mapping on a
   further-degraded array through a certified escalation ladder —
   diagnose exactly what the new mask breaks, freeze everything
   healthy, and repair the smallest thing that works:

     untouched -> route-only -> re-place -> ii-bump -> full fallback

   Certification contract: every rung's candidate passes
   [Check.validate] under the new mask before it is returned (the
   negotiated router validates internally, and the ladder driver
   re-validates once more), so an uncertified mapping can never escape,
   whatever the rung.  Rungs 1-4 are deterministic in their inputs;
   only the fallback race (2+ tiers, 2+ workers) is timing-dependent.

   Determinism notes: diagnosis walks nodes and edges in index order;
   RF-capacity loss is attributed greedily in edge order; displacement
   candidates are sorted by (Manhattan ring distance from the old cell,
   PE index) — a deterministic spiral; the ii-bump keep-or-displace
   pass processes nodes in id order.  No RNG is consulted before the
   fallback rung. *)

open Ocgra_dfg
open Ocgra_arch
module Obs = Ocgra_obs.Ctx

type diagnosis = { dead_nodes : int list; broken_edges : int list }

let diagnosis_to_string d =
  Printf.sprintf "%d dead binding(s) %s, %d broken route(s) %s"
    (List.length d.dead_nodes)
    ("[" ^ String.concat "," (List.map string_of_int d.dead_nodes) ^ "]")
    (List.length d.broken_edges)
    ("[" ^ String.concat "," (List.map string_of_int d.broken_edges) ^ "]")

(* What the new mask breaks, from the fault-masked arch queries alone.
   The mapping is assumed checker-valid under the previous mask, so
   timing and structural constraints hold; only fault-dependent
   legality is re-examined — the same conditions [Check.validate]
   enforces, without re-deriving the rest. *)
let diagnose (p : Problem.t) (m : Mapping.t) =
  let cgra = p.cgra and dfg = p.dfg in
  let ii = m.Mapping.ii in
  let mrrg = Mrrg.make cgra ~ii in
  let dead_nodes =
    List.filter
      (fun v ->
        let pe, time = m.Mapping.binding.(v) in
        (not (Mrrg.live mrrg ~pe ~time)) || not (Cgra.supports cgra pe (Dfg.op dfg v)))
      (List.init (Dfg.node_count dfg) Fun.id)
  in
  let dead v = List.mem v dead_nodes in
  let edges = Array.of_list (Dfg.edges dfg) in
  (* replay each route's walk, testing only the fault-masked conditions:
     dead hop/hold resources, masked adjacency, dead endpoints *)
  let fault_broken e =
    let edge = edges.(e) in
    dead edge.Dfg.src || dead edge.Dfg.dst
    ||
    let src_pe, _ = m.Mapping.binding.(edge.Dfg.src) in
    let dst_pe, _ = m.Mapping.binding.(edge.Dfg.dst) in
    let cur = ref src_pe and in_rf = ref false and bad = ref false in
    List.iter
      (fun step ->
        match step with
        | Mapping.Hop { pe; time } ->
            if not (Mrrg.live mrrg ~pe ~time) then bad := true;
            if (not !in_rf) && pe <> !cur && not (List.mem pe (Cgra.neighbours cgra !cur)) then
              bad := true;
            cur := pe;
            in_rf := false
        | Mapping.Hold { pe; _ } ->
            if not (Cgra.pe_ok cgra pe) then bad := true;
            in_rf := true)
      m.Mapping.routes.(e);
    if (not !in_rf) && !cur <> dst_pe && not (List.mem dst_pe (Cgra.neighbours cgra !cur)) then
      bad := true;
    !bad
  in
  let broken = Array.init (Array.length edges) fault_broken in
  (* RF-capacity pass ([Rf_reduced]): surviving routes claim their
     holds in a ledger greedily in edge order; one that no longer fits
     the shrunken file anywhere along its span is broken.  The ledger
     counts per cycle, as the checker's rotating-register accounting
     does, multiplicities included. *)
  let ledger = Occupancy.create ~npe:(Cgra.pe_count cgra) ~ii () in
  Array.iteri
    (fun e route ->
      if not (broken.(e) || Occupancy.try_claim_route cgra ledger e route) then broken.(e) <- true)
    m.Mapping.routes;
  {
    dead_nodes;
    broken_edges = List.filter (fun e -> broken.(e)) (List.init (Array.length edges) Fun.id);
  }

type outcome = {
  mapping : Mapping.t option;
  rung : Mapper.rung option;
  diagnosis : diagnosis;
  elapsed_s : float;
  note : string;
  trail : Mapper.tier_report list;
}

(* PathFinder negotiation rounds per routing attempt, and how far past
   the original II the ii-bump rung may climb *)
let max_iters = 24
let max_ii_bumps = 2

let repair ?(seed = 42) ?(deadline = Deadline.none) ?(obs = Obs.off) ?(fallback = []) ?workers
    (p : Problem.t) (m0 : Mapping.t) =
  let t0 = Deadline.now () in
  let cgra = p.Problem.cgra in
  let npe = Cgra.pe_count cgra in
  let reports = ref [] in
  let mk_outcome ~diagnosis mapping rung note =
    { mapping; rung; diagnosis; elapsed_s = Deadline.now () -. t0; note; trail = List.rev !reports }
  in
  if
    Array.length m0.Mapping.binding <> Dfg.node_count p.Problem.dfg
    || Array.length m0.Mapping.routes <> Dfg.edge_count p.Problem.dfg
    || Array.exists (fun (pe, _) -> pe < 0 || pe >= npe) m0.Mapping.binding
  then
    mk_outcome
      ~diagnosis:{ dead_nodes = []; broken_edges = [] }
      None None "repair refused: mapping shape does not match the problem"
  else begin
    let d = Obs.span obs ~cat:"repair" "repair:diagnose" (fun () -> diagnose p m0) in
    Obs.add obs "repair.diagnosed" (List.length d.dead_nodes + List.length d.broken_edges);
    let mk_outcome = mk_outcome ~diagnosis:d in
    if not (Problem.mappable p) then
      mk_outcome None None
        (Printf.sprintf "unrepairable: some operation has no capable, non-faulted PE (%s)"
           (diagnosis_to_string d))
    else begin
      (* deterministic spiral: healthy capable PEs by Manhattan ring
         distance from the op's old cell, PE index breaking ties *)
      let spiral_candidates ~occ op ~from_pe ~time =
        let fr, fc = Cgra.coords cgra from_pe in
        let dist pe =
          let r, c = Cgra.coords cgra pe in
          abs (r - fr) + abs (c - fc)
        in
        Cgra.capable_pes cgra op
        |> List.filter (fun pe -> Occupancy.fu_free occ ~pe ~time)
        |> List.sort (fun a b -> compare (dist a, a) (dist b, b))
      in
      (* move each displaced op [vs], in order, to its first spiral
         candidate at its old cycle; returns how many were placed before
         the first op with no candidate, and whether every op was *)
      let place_displaced ~occ binding vs =
        let rec go n = function
          | [] -> (n, true)
          | v :: rest -> (
              let pe0, time = m0.Mapping.binding.(v) in
              match spiral_candidates ~occ (Dfg.op p.Problem.dfg v) ~from_pe:pe0 ~time with
              | [] -> (n, false)
              | pe :: _ ->
                  Occupancy.claim_fu occ ~pe ~time (Occupancy.U_node v);
                  binding.(v) <- (pe, time);
                  go (n + 1) rest)
        in
        go 0 vs
      in
      (* ---- rung: untouched ---- *)
      let untouched () =
        match Check.validate p m0 with
        | [] -> (Some m0, "new mask does not touch the mapping")
        | v :: _ -> (None, "diagnosis clean but validator disagrees: " ^ v)
      in
      (* ---- rungs: route-only and local re-place ---- *)
      (* Freeze the survivors in one ledger, move the ops on dead
         silicon (none, for route-only) and negotiate the broken edges:
         diagnosis marks every edge touching a dead endpoint broken, so
         [d.broken_edges] is exactly the rip-up set. *)
      let salvage () =
        let broken = d.broken_edges and ii = m0.Mapping.ii in
        let n = List.length broken in
        let occ = Occupancy.create ~cgra ~npe ~ii () in
        let rerouted =
          match
            Occupancy.claim_frozen occ
              ~skip_nodes:(fun v -> List.mem v d.dead_nodes)
              ~keep_edge:(fun e -> not (List.mem e broken))
              ~binding:m0.Mapping.binding ~routes:m0.Mapping.routes ()
          with
          | exception Invalid_argument _ -> Error "frozen claims collide under the new mask"
          | () -> (
              let binding = Array.copy m0.Mapping.binding in
              let moved, placed = place_displaced ~occ binding d.dead_nodes in
              Obs.add obs "repair.displaced" moved;
              if not placed then Error "an op on dead silicon has no nearby healthy slot"
              else begin
                Obs.add obs "repair.ripped" n;
                match
                  Pathfinder.route_all ~obs ~only:broken ~init_routes:m0.Mapping.routes p occ
                    binding ~max_iters
                with
                | Some m ->
                    Obs.add obs "repair.rerouted" n;
                    Ok m
                | None -> Error "displaced ops could not be re-routed"
              end)
        in
        match (d.dead_nodes, rerouted) with
        | [], Ok m ->
            (Some m, Printf.sprintf "re-routed %d edge(s) around the mask, all else frozen" n)
        | [], Error _ -> (None, Printf.sprintf "could not re-route %d broken edge(s)" n)
        | dead, Ok m ->
            (Some m, Printf.sprintf "displaced %d op(s), re-routed %d edge(s)" (List.length dead) n)
        | _, Error why -> (None, why)
      in
      (* ---- rung: ii bump ---- *)
      let ii_bump () =
        let top = min (Problem.max_ii p) (m0.Mapping.ii + max_ii_bumps) in
        let rec go ii =
          if ii > top then
            (None, Printf.sprintf "no II in (%d, %d] worked" m0.Mapping.ii top)
          else if ii > m0.Mapping.ii + 1 && Deadline.expired deadline then
            (None, "budget expired mid-bump")
          else begin
            (* seed the retry with the surviving schedule: every binding
               keeps its cycle; ops whose slot is dead or collides at
               the wider II are displaced, in id order *)
            let occ = Occupancy.create ~cgra ~npe ~ii () in
            let binding = Array.copy m0.Mapping.binding in
            let pending = ref [] in
            Array.iteri
              (fun v (pe, time) ->
                if Cgra.supports cgra pe (Dfg.op p.Problem.dfg v) && Occupancy.fu_free occ ~pe ~time
                then Occupancy.claim_fu occ ~pe ~time (Occupancy.U_node v)
                else pending := v :: !pending)
              binding;
            match place_displaced ~occ binding (List.rev !pending) with
            | _, false -> go (ii + 1)
            | displaced, true -> (
                match Pathfinder.route_all ~obs p occ binding ~max_iters with
                | Some m ->
                    Obs.add obs "repair.displaced" displaced;
                    ( Some m,
                      Printf.sprintf "II %d -> %d (%d op(s) displaced)" m0.Mapping.ii ii displaced
                    )
                | None -> go (ii + 1))
          end
        in
        if m0.Mapping.ii >= Problem.max_ii p then (None, "already at the II bound")
        else go (m0.Mapping.ii + 1)
      in
      (* ---- rung: full fallback ---- *)
      let full_fallback () =
        let o = Mapper.Harness.race ~seed ?deadline_s:(Deadline.remaining_s deadline) ?workers ~obs fallback p in
        match o.Mapper.mapping with
        | Some m -> (Some m, "cold remap: " ^ o.Mapper.note)
        | None -> (None, "cold remap failed: " ^ o.Mapper.note)
      in
      let rungs =
        (if d.dead_nodes = [] && d.broken_edges = [] then [ (Mapper.Untouched, untouched) ]
         else [ ((if d.dead_nodes = [] then Mapper.Route_only else Mapper.Local_replace), salvage) ])
        @ (if Problem.is_spatial p then [] else [ (Mapper.Ii_bump, ii_bump) ])
        @ if fallback = [] then [] else [ (Mapper.Full_fallback, full_fallback) ]
      in
      let rec climb first = function
        | [] ->
            let failures =
              String.concat "; " (List.rev_map Mapper.report_to_string !reports)
            in
            mk_outcome None None
              (Printf.sprintf "no rung certified a repair (%s): %s" (diagnosis_to_string d)
                 failures)
        | (rung, f) :: rest ->
            if (not first) && Deadline.expired deadline then begin
              let name = Mapper.rung_to_string rung in
              reports :=
                {
                  Mapper.tier = "repair:" ^ name;
                  try_no = 0;
                  verdict = Mapper.Expired;
                  took_s = 0.0;
                  detail = "budget expired before this rung";
                  counters = [];
                }
                :: !reports;
              climb false rest
            end
            else begin
              let name = Mapper.rung_to_string rung in
              let t1 = Deadline.now () in
              let cand, detail = Obs.span obs ~cat:"repair" ("repair:" ^ name) f in
              (* the certification contract, enforced once more at the
                 ladder driver whatever the rung did internally *)
              let cand, detail =
                match cand with
                | Some m when Check.validate p m <> [] ->
                    (None, "UNCERTIFIED candidate demoted: " ^ detail)
                | c -> (c, detail)
              in
              let took_s = Deadline.now () -. t1 in
              let verdict =
                match cand with
                | Some _ -> Mapper.Repaired rung
                | None -> if Deadline.expired deadline then Mapper.Expired else Mapper.Failed
              in
              (* per-rung elapsed distribution (microseconds — an
                 integer histogram) and the ladder transition as an
                 event; the event carries no timing so repair event
                 logs stay deterministic for a fixed scenario *)
              Obs.observe obs ("repair.rung_us." ^ name)
                (int_of_float (took_s *. 1e6));
              Obs.event obs ~cat:"repair" "repair.rung"
                [
                  ("rung", Ocgra_obs.Events.Str name);
                  ( "verdict",
                    Ocgra_obs.Events.Str
                      (match verdict with
                      | Mapper.Repaired _ -> "repaired"
                      | Mapper.Expired -> "expired"
                      | _ -> "failed") );
                ];
              reports :=
                { Mapper.tier = "repair:" ^ name; try_no = 0; verdict; took_s; detail; counters = [] }
                :: !reports;
              match cand with
              | Some m ->
                  mk_outcome (Some m) (Some rung)
                    (Printf.sprintf "repaired (%s): %s" name detail)
              | None ->
                  Obs.incr obs "repair.escalations";
                  climb false rest
            end
      in
      climb true rungs
    end
  end
