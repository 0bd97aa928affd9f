(* SAT-based temporal mapping ([17] Miyasaka et al.): binding,
   scheduling AND routing encoded propositionally and solved with the
   CDCL solver, one candidate II at a time.  A direct [map] call sweeps
   upward from MII; the registered mappers first run the structural
   presolve ([Presolve], DESIGN.md) from MII, then probe the first II
   no certificate refutes with a decoupled FU-hop binding, and start
   the sweep there only if the probe misses.  Either way every II
   below the answer is refuted — by a checked certificate or by UNSAT
   within the schedule window — so the answer is a certified optimal
   II.

   Variables, shared across the whole II sweep:
     x[v][p][t]  operation v executes on PE p at cycle t
     y[e][p][t]  the value of edge e is readable on p's output at t
     h[e][p][t]  a route op for e occupies p's FU at cycle t
   These propositions do not mention the II, so ONE solver instance
   per kernel serves the whole sweep.  The clauses split in two:

   - II-independent routing fabric, added unguarded exactly once per
     variable as it is created on demand: y justified by production or
     by a hop one cycle earlier, hops justified by an adjacent
     readable value, production implies readability.  Conflict clauses
     learnt from this fabric carry no activation literal and stay
     valid for every later II.
   - Per-II structure, guarded by an activation literal g_ii (each
     clause weakened to not-g_ii \/ C): exactly-one execution slot per
     node over the II's schedule window, FU exclusivity per (pe, t mod
     ii) slot, consumption at t + dist*ii, and framing that pins
     shared variables outside the II's window (or on fault-aliased
     slots) to false.  Candidate II is solved as [solve
     ~assumptions:[g_ii]]; a refuted II is retired with a unit
     not-g_ii, which the solver's root simplification uses to reclaim
     the group.

   - Symmetry breaking, unguarded: one node v0 may execute only on the
     smallest PE of each orbit of the array's automorphism group
     ([Cgra.automorphisms]).  Every automorphism maps a solution at
     any II to a solution at the same II, so these units change no
     verdict (DESIGN.md §4i).

   Learnt clauses, VSIDS activity and saved phases therefore carry
   from one II to the next instead of restarting cold — the difference
   the committed BENCH_PR8.json quantifies (bench sat-sweep-only runs
   [map] with and without [~incremental]).  The cold-per-II baseline
   (fresh solver per candidate, the pre-incremental behaviour) is kept
   as [map ~incremental:false], and registered as [mapper_cold].

   Simplifications vs the full framework (DESIGN.md): the [Mrrg.Fu_hop]
   route model, whose live cells [add_ii] reads: FU hops only (no RF
   holds), and each edge routes separately (no fan-out sharing); both
   only shrink the feasible set, so produced mappings stay valid. *)

open Ocgra_dfg
open Ocgra_core
module Sat = Ocgra_sat.Solver
module Enc = Ocgra_sat.Encodings

(* Variable tables keyed by (node or edge, pe, cycle).  The hash is
   the polymorphic [Hashtbl.hash] that an unseeded generic table uses,
   so buckets, [iter] order and with it the emitted clause order are
   those of a generic table; only the key equality is specialised. *)
module Tbl = Hashtbl.Make (struct
  type t = int * int * int

  let equal ((a, b, c) : t) ((a', b', c') : t) = a = a' && b = b' && c = c'
  let hash = Hashtbl.hash
end)

type instance = {
  sat : Sat.t;
  x : Sat.lit Tbl.t; (* node, pe, t *)
  y : Sat.lit Tbl.t; (* edge, pe, t *)
  h : Sat.lit Tbl.t;
  edges : Dfg.edge array;
  out_edges : (int * Dfg.edge) list array; (* node -> (edge index, edge) *)
  v0 : int; (* the node pinned to orbit representatives *)
  keep : bool array; (* pe -> v0 may execute on pe *)
  mutable pruned : int; (* x[v0][pe][t] fixed false so far *)
  mutable flushed : Sat.stats; (* solver tallies at the last [flush_stats] *)
}

(* The node pinned to orbit representatives: one of highest degree (in
   plus out edges), whose placement the most production and
   consumption clauses hang on; ties go to the highest node index.
   Any node is sound; DESIGN.md §4i records the rules measured. *)
let pivot dfg =
  let deg = Array.make (Dfg.node_count dfg) 0 in
  Dfg.iter_edges
    (fun (e : Dfg.edge) ->
      deg.(e.src) <- deg.(e.src) + 1;
      deg.(e.dst) <- deg.(e.dst) + 1)
    dfg;
  let best = ref 0 in
  Array.iteri (fun v d -> if d >= deg.(!best) then best := v) deg;
  !best

(* Symmetry breaking: every kept automorphism of the array maps a
   mapping in this encoding's model to another one with the same
   times, so some solution (if any) puts [v0] on the smallest PE of
   its orbit.  [keep] marks those orbit representatives. *)
let create_instance obs (p : Problem.t) =
  let npe = Ocgra_arch.Cgra.pe_count p.cgra in
  let autos = Ocgra_arch.Cgra.automorphisms p.cgra in
  let keep =
    Array.init npe (fun pe -> List.for_all (fun (s : int array) -> s.(pe) >= pe) autos)
  in
  let v0 = pivot p.dfg in
  Ocgra_obs.Ctx.event obs ~cat:"sat" "sat.symmetry"
    [
      ("order", Ocgra_obs.Events.Int (List.length autos));
      ("v0", Ocgra_obs.Events.Int v0);
      ("kept", Ocgra_obs.Events.Int (Array.fold_left (fun k b -> k + Bool.to_int b) 0 keep));
    ];
  let edges = Array.of_list (Dfg.edges p.dfg) in
  let out_edges = Array.make (Dfg.node_count p.dfg) [] in
  Array.iteri
    (fun e (edge : Dfg.edge) -> out_edges.(edge.src) <- (e, edge) :: out_edges.(edge.src))
    edges;
  (* reverse so fabric emission walks out-edges in index order *)
  Array.iteri (fun v l -> out_edges.(v) <- List.rev l) out_edges;
  let sat = Sat.create () in
  {
    sat;
    x = Tbl.create 256;
    y = Tbl.create 256;
    h = Tbl.create 256;
    edges;
    out_edges;
    v0;
    keep;
    pruned = 0;
    flushed = Sat.stats sat;
  }

(* ---- on-demand shared variables + their unguarded fabric ----

   Each getter interns the variable *before* emitting its fabric
   clause, so the mutual recursion (y at t needs h at t-1 needs y at
   t-1 ...; x at t implies y at t+lat whose justification is x at t)
   grounds on the table instead of looping.  Recursion strictly
   decreases t along y/h chains and terminates at t = 0. *)

let rec get_x inst (p : Problem.t) v pe t =
  if t < 0 || not (Ocgra_arch.Cgra.supports p.cgra pe (Dfg.op p.dfg v)) then None
  else
    match Tbl.find_opt inst.x (v, pe, t) with
    | Some l -> Some l
    | None ->
        let l = Sat.pos (Sat.new_var inst.sat) in
        Tbl.add inst.x (v, pe, t) l;
        (* symmetry breaking: unguarded, so valid at every II; a
           root-level false literal also satisfies this variable's
           fabric clauses below, which the solver then drops *)
        if v = inst.v0 && not inst.keep.(pe) then begin
          Sat.add_clause inst.sat [ Sat.negate l ];
          inst.pruned <- inst.pruned + 1
        end;
        (* production implies readability, per out-edge *)
        let lat = Op.latency (Dfg.op p.dfg v) in
        List.iter
          (fun (e, (_ : Dfg.edge)) ->
            let yl = get_y inst p e pe (t + lat) in
            Sat.add_clause inst.sat [ Sat.negate l; yl ])
          inst.out_edges.(v);
        Some l

and get_y inst (p : Problem.t) e pe t =
  match Tbl.find_opt inst.y (e, pe, t) with
  | Some l -> l
  | None ->
      let l = Sat.pos (Sat.new_var inst.sat) in
      Tbl.add inst.y (e, pe, t) l;
      (* justification: production here, or a hop here one cycle
         earlier; no justification forces y false (e.g. any t on a
         downed PE, or t too early for the producer) *)
      let edge = inst.edges.(e) in
      let lat = Op.latency (Dfg.op p.dfg edge.src) in
      let just = ref [] in
      (match get_x inst p edge.src pe (t - lat) with
      | Some xl -> just := xl :: !just
      | None -> ());
      (match get_h inst p e pe (t - 1) with
      | Some hl -> just := hl :: !just
      | None -> ());
      Sat.add_clause inst.sat (Sat.negate l :: !just);
      l

and get_h inst (p : Problem.t) e pe t =
  if t < 0 || not (Ocgra_arch.Cgra.pe_ok p.cgra pe) then None
  else
    match Tbl.find_opt inst.h (e, pe, t) with
    | Some l -> Some l
    | None ->
        let l = Sat.pos (Sat.new_var inst.sat) in
        Tbl.add inst.h (e, pe, t) l;
        (* hop justification: an adjacent readable value the same cycle *)
        let feeds = List.map (fun q -> get_y inst p e q t) (Ocgra_arch.Cgra.feeders p.cgra pe) in
        Sat.add_clause inst.sat (Sat.negate l :: feeds);
        Some l

(* ---- the guarded per-II constraint group ---- *)

(* Adds the candidate II's clause group to the shared instance and
   returns its activation literal.  Assume it to solve this II.  The
   passes read the x/h tables through per-II indexes built in one walk
   each — by node, and by (pe, t mod ii) slot — instead of rescanning
   the tables per edge, node and slot; each index lists its entries in
   the order a full-table scan meets them, so the clauses come out in
   the same order. *)
let add_ii inst (p : Problem.t) ~ii ~slack =
  let dfg = p.dfg and cgra = p.cgra in
  let npe = Ocgra_arch.Cgra.pe_count cgra in
  let n = Dfg.node_count dfg in
  let asap = Dfg.asap dfg in
  let sat = inst.sat in
  let g = Sat.pos (Sat.new_var sat) in
  let slot pe t = (pe * ii) + (t mod ii) in
  let mrrg = Mrrg.make cgra ~ii in
  let live v pe t = t >= asap.(v) && t <= asap.(v) + ii + slack && Mrrg.live mrrg ~pe ~time:t in
  (* 0. interning pass: every in-window executable slot exists (shared
     with smaller IIs whose windows are prefixes of this one) *)
  for v = 0 to n - 1 do
    for pe = 0 to npe - 1 do
      for t = asap.(v) to asap.(v) + ii + slack do
        if Mrrg.live mrrg ~pe ~time:t then ignore (get_x inst p v pe t)
      done
    done
  done;
  (* 1. consumption (guarded): the consumer reads an adjacent readable
     value at its consumption cycle.  Creates this II's y/h fabric on
     demand — and with it any out-of-window x vars it references,
     which pass 4 then frames false.  Iterate a snapshot, indexed by
     node: get_y's recursion interns those x vars into the table
     mid-pass, and mutating a table under Tbl.iter is undefined.
     (No live entry is ever created here — live slots all exist after
     pass 0 — so the snapshot misses no consumption clause.) *)
  let by_node = Array.make n [] in
  Tbl.iter (fun ((v, _, _) as k) l -> by_node.(v) <- (k, l) :: by_node.(v)) inst.x;
  Array.iteri
    (fun e (edge : Dfg.edge) ->
      List.iter
        (fun ((v, pe, t), xl) ->
          if live v pe t then begin
            let ct = t + (edge.dist * ii) in
            let feeds = List.map (fun q -> get_y inst p e q ct) (Ocgra_arch.Cgra.feeders cgra pe) in
            Enc.implies ~guard:g sat xl feeds
          end)
        by_node.(edge.dst))
    inst.edges;
  (* live x entries by node, and FU users (live ops, then hops on live
     slots) by (pe, slot) *)
  let live_x = Array.make n [] and users = Array.make (npe * ii) [] in
  Tbl.iter
    (fun (v, pe, t) l ->
      if live v pe t then begin
        live_x.(v) <- l :: live_x.(v);
        users.(slot pe t) <- l :: users.(slot pe t)
      end)
    inst.x;
  Tbl.iter
    (fun (_, pe, t) l ->
      if Mrrg.live mrrg ~pe ~time:t then users.(slot pe t) <- l :: users.(slot pe t))
    inst.h;
  (* 2. each node executes exactly once, within this II's window.  No
     live slot makes the II infeasible — at_least_one over [] is the
     guarded empty clause, i.e. a unit against g *)
  Array.iter (Enc.exactly_one ~guard:g sat) live_x;
  (* 3. FU exclusivity per (pe, slot): ops and hops together *)
  Array.iter (Enc.at_most_one ~guard:g sat) users;
  (* 4. framing: shared vars that this II cannot use are pinned false
     under its guard — x outside the window or on a fault-aliased
     slot, h on a fault-aliased slot *)
  Tbl.iter
    (fun (v, pe, t) l -> if not (live v pe t) then Sat.add_clause sat [ Sat.negate g; Sat.negate l ])
    inst.x;
  Tbl.iter
    (fun (_, pe, t) l ->
      if not (Mrrg.live mrrg ~pe ~time:t) then Sat.add_clause sat [ Sat.negate g; Sat.negate l ])
    inst.h;
  g

(* Extract the binding and explicit hop routes from a model. *)
let extract (p : Problem.t) inst ~ii =
  let dfg = p.dfg in
  let n = Dfg.node_count dfg in
  let binding = Array.make n (-1, -1) in
  Tbl.iter
    (fun (v, pe, t) l -> if Sat.value inst.sat l then binding.(v) <- (pe, t))
    inst.x;
  let feeders = Ocgra_arch.Cgra.feeders p.cgra in
  let y_true e pe t =
    match Tbl.find_opt inst.y (e, pe, t) with Some l -> Sat.value inst.sat l | None -> false
  in
  let h_true e pe t =
    match Tbl.find_opt inst.h (e, pe, t) with Some l -> Sat.value inst.sat l | None -> false
  in
  let routes =
    Array.mapi
      (fun e (edge : Dfg.edge) ->
        let pv, tv = binding.(edge.dst) in
        let lat = Op.latency (Dfg.op dfg edge.src) in
        let avail0 = snd binding.(edge.src) + lat in
        let ct = tv + (edge.dist * ii) in
        (* backward walk tracking the value's location: at (pe, t) the
           value is readable; it got there by a hop on pe at t-1 from an
           adjacent readable location, or by production at (pu, avail0) *)
        let rec walk pe t acc =
          if t = avail0 then acc (* grounded at production on pu *)
          else if h_true e pe (t - 1) then begin
            match List.find_opt (fun q -> y_true e q (t - 1)) (feeders pe) with
            | Some q -> walk q (t - 1) (Mapping.Hop { pe; time = t - 1 } :: acc)
            | None -> acc (* model inconsistency; caught by the checker *)
          end
          else acc
        in
        (* the consumer reads from an adjacent readable location *)
        if ct = avail0 then []
        else begin
          match List.find_opt (fun q -> y_true e q ct) (feeders pv) with
          | Some q0 -> walk q0 ct []
          | None -> []
        end)
      inst.edges
  in
  { Mapping.ii; binding; routes }

let verdict_to_string = function
  | Sat.Sat -> "sat"
  | Sat.Unsat -> "unsat"
  | Sat.Unknown -> "unknown"

(* Flush the solver tally *deltas* of one candidate II into the
   metrics sink: the solver's counters and distribution arrays are
   cumulative over the instance's life, so per-II attribution subtracts
   the snapshot the instance last flushed (all zeros for a fresh one).
   The CDCL hot loop itself stays instrumentation-free: it tallies into
   plain int arrays, and this wrapper is where those become Obs
   histograms (LBD exact, trail depth and propagations-per-decision
   re-expanded from their log2 buckets) plus a per-II convergence
   event. *)
let flush_stats obs inst ~ii ~verdict =
  let s = Sat.stats inst.sat and m = inst.flushed in
  Ocgra_obs.Ctx.add obs "sat.conflicts" (s.conflicts - m.conflicts);
  Ocgra_obs.Ctx.add obs "sat.decisions" (s.decisions - m.decisions);
  Ocgra_obs.Ctx.add obs "sat.propagations" (s.propagations - m.propagations);
  Ocgra_obs.Ctx.add obs "sat.restarts" (s.restarts - m.restarts);
  Ocgra_obs.Ctx.add obs "sat.reduces" (s.reduces - m.reduces);
  for i = 0 to 63 do
    Ocgra_obs.Ctx.observe_n obs "sat.lbd" i (s.lbd.(i) - m.lbd.(i));
    Ocgra_obs.Ctx.observe_n obs "sat.trail_depth" (1 lsl i) (s.trail_depth.(i) - m.trail_depth.(i));
    Ocgra_obs.Ctx.observe_n obs "sat.props_per_decision" (1 lsl i)
      (s.props_per_decision.(i) - m.props_per_decision.(i))
  done;
  Ocgra_obs.Ctx.event obs ~cat:"sat" "sat.ii"
    [
      ("ii", Ocgra_obs.Events.Int ii);
      ("verdict", Ocgra_obs.Events.Str (verdict_to_string verdict));
      ("conflicts", Ocgra_obs.Events.Int (s.conflicts - m.conflicts));
      ("decisions", Ocgra_obs.Events.Int (s.decisions - m.decisions));
      ("restarts", Ocgra_obs.Events.Int (s.restarts - m.restarts));
      ("reduces", Ocgra_obs.Events.Int (s.reduces - m.reduces));
      ("learnts", Ocgra_obs.Events.Int s.learnts);
    ];
  inst.flushed <- s

(* Refute what the presolve can from MII upward; returns the first II
   left for the solver and the outcome-note suffix naming each
   certificate.  Every certificate acted on has passed [Presolve.check]. *)
let presolve_from obs (p : Problem.t) ~from ~upto =
  let start, certs =
    Ocgra_obs.Ctx.span obs ~cat:"sat" "sat:presolve" (fun () ->
        Presolve.first_open p ~from ~upto)
  in
  List.iter
    (fun (c : Presolve.certificate) ->
      Ocgra_obs.Ctx.add obs "sat.presolved" 1;
      let rule =
        match c.rule with
        | Presolve.Slot_count { needed; live; _ } ->
            [ ("rule", Ocgra_obs.Events.Str "slot-count");
              ("needed", Ocgra_obs.Events.Int needed);
              ("live", Ocgra_obs.Events.Int live) ]
        | Presolve.Neighbourhood { node; degree; room } ->
            [ ("rule", Ocgra_obs.Events.Str "neighbourhood");
              ("node", Ocgra_obs.Events.Int node);
              ("degree", Ocgra_obs.Events.Int degree);
              ("room", Ocgra_obs.Events.Int room) ]
        | Presolve.Embedding { ops; slots; vf2_nodes; dfs_nodes } ->
            [ ("rule", Ocgra_obs.Events.Str "embedding");
              ("ops", Ocgra_obs.Events.Int ops);
              ("slots", Ocgra_obs.Events.Int slots);
              ("vf2_nodes", Ocgra_obs.Events.Int vf2_nodes);
              ("dfs_nodes", Ocgra_obs.Events.Int dfs_nodes) ]
      in
      Ocgra_obs.Ctx.event obs ~cat:"sat" "sat.presolve"
        ((("ii", Ocgra_obs.Events.Int c.ii) :: rule)
        @ [ ("model", Ocgra_obs.Events.Str (Mrrg.route_model_to_string c.model)) ]))
    certs;
  let note =
    match certs with
    | [] -> ""
    | _ -> "presolve: " ^ String.concat ", " (List.map (Presolve.to_string p) certs)
  in
  (start, note)

(* The bound probe: a decoupled schedule-then-bind attempt at the
   presolve's lower bound [lb], so a kernel whose optimum IS the bound
   needs no solver call.  Iso-binding routes by FU hops only, one chain
   per edge, and a result counts only with every node inside the SAT
   schedule window and a clean [Check.validate]: a hit is then a
   mapping the sweep's own model admits, at an II below which every
   candidate carries a checked certificate. *)
let bound_probe obs deadline (p : Problem.t) rng ~lb ~slack =
  let asap = Dfg.asap p.dfg in
  let in_window (m : Mapping.t) =
    Array.for_all2 (fun (_, t) a -> t >= a && t <= a + lb + slack) m.binding asap
  in
  let try_once _ =
    match Sched.modulo_list_schedule p rng ~ii:lb with
    | None -> Mapper.Refuted
    | Some times -> (
        match Iso_binding.bind p ~ii:lb times with
        | Some m when in_window m && Check.validate p m = [] -> Mapper.Mapped m
        | _ -> Mapper.Gave_up)
  in
  let found =
    Ocgra_obs.Ctx.span obs ~cat:"sat" "sat:bound" (fun () -> Mapper.tries 4 deadline try_once)
  in
  let hit = found <> None in
  if hit then Ocgra_obs.Ctx.incr obs "sat.bound_hits";
  Ocgra_obs.Ctx.event obs ~cat:"sat" "sat.bound"
    [ ("ii", Ocgra_obs.Events.Int lb); ("hit", Ocgra_obs.Events.Int (Bool.to_int hit)) ];
  found

let map ?(slack = 3) ?(max_conflicts = 300_000) ?(deadline = Deadline.none)
    ?(obs = Ocgra_obs.Ctx.off) ?(incremental = true) ?(presolve = false) (p : Problem.t) rng =
  let should_stop = Deadline.should_stop deadline in
  match p.kind with
  | Problem.Spatial -> (None, 0, false, "spatial problems use the ILP/heuristic spatial mappers")
  | Problem.Temporal { max_ii; _ } ->
      let mii = max 1 (Mii.mii p.dfg p.cgra) in
      let from, presolved =
        if presolve then presolve_from obs p ~from:mii ~upto:max_ii else (mii, "")
      in
      (* one shared instance drives the whole sweep; the cold baseline
         rebuilds a fresh one per candidate II instead.  It is built at
         the first solver call, so a bound-probe hit leaves no solver
         event behind *)
      let shared = if incremental then Some (lazy (create_instance obs p)) else None in
      let solve ii () =
        let inst =
          match shared with Some inst -> Lazy.force inst | None -> create_instance obs p
        in
        let pruned = inst.pruned in
        let g = add_ii inst p ~ii ~slack in
        Ocgra_obs.Ctx.add obs "sat.sym_pruned" (inst.pruned - pruned);
        let verdict = Sat.solve ~max_conflicts ~should_stop ~assumptions:[ g ] inst.sat in
        flush_stats obs inst ~ii ~verdict;
        (* retire a refuted or abandoned candidate: the unit not-g lets
           root simplification reclaim its group *)
        if verdict <> Sat.Sat then begin
          Sat.add_clause inst.sat [ Sat.negate g ];
          if incremental then
            Ocgra_obs.Ctx.event obs ~cat:"sat" "sat.retire" [ ("ii", Ocgra_obs.Events.Int ii) ]
        end;
        (inst, verdict)
      in
      (* UNSAT refutes the candidate; an exhausted conflict budget or
         the deadline only gives it up.  Every per-II clause is
         guarded, so the shared instance never turns UNSAT by itself.
         With the presolve, the first step probes its lower bound and
         calls the solver only on a miss. *)
      let probe ii =
        if presolve && ii = from then bound_probe obs deadline p rng ~lb:ii ~slack else None
      in
      let step ii =
        match probe ii with
        | Some m -> Mapper.Mapped m
        | None -> (
            match Ocgra_obs.Ctx.span obs ~cat:"sat" (Printf.sprintf "sat:ii=%d" ii) (solve ii) with
            | inst, Sat.Sat -> Mapper.Mapped (extract p inst ~ii)
            | _, Sat.Unsat -> Mapper.Refuted
            | _, Sat.Unknown -> Mapper.Gave_up)
      in
      let s = Mapper.sweep ~from ~max_ii deadline p step in
      let note =
        match s.stop with
        | Mapper.Found -> ""
        | Mapper.All_refuted -> "unsat up to max II"
        | Mapper.Some_gave_up -> "budget"
        | Mapper.Out_of_time -> "deadline"
      in
      let note =
        match (note, presolved) with n, "" | "", n -> n | n, pre -> n ^ "; " ^ pre
      in
      (s.found, s.steps, s.proven, note)

let make_mapper ~name ~incremental =
  Mapper.make ~name ~citation:"Miyasaka et al. [17]"
    ~scope:Taxonomy.Temporal_mapping ~approach:Taxonomy.Exact_sat
    (fun p rng dl obs ->
      let m, attempts, proven, note = map ~deadline:dl ~obs ~incremental ~presolve:true p rng in
      Mapper.outcome ~proven ~note ~attempts m)

let mapper = make_mapper ~name:"sat" ~incremental:true

(* The pre-incremental baseline — a fresh solver per candidate II,
   behind the same presolve and bound probe — registered as "sat-cold"
   so the CLI can run it beside "sat"; smoke.sh compares the two.  The
   bench's raw cold sweep is [map ~incremental:false], not this. *)
let mapper_cold = make_mapper ~name:"sat-cold" ~incremental:false
