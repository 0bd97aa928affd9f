(* Decoupled mappers: modulo list scheduling first, then binding by
   three different techniques — the "Binding" and "Scheduling" rows of
   Table I.

   - [list_scheduling]: schedule, then greedy binding (the classic
     scheduling-driven flow of [24], [36], [46], [51]).
   - [clique_binding]: schedule, then binding as a maximum clique of
     the compatibility graph (RAMP [38]; REGIMap's compatibility graph
     [46]).
   - [qea_binding]: schedule, then binding evolved by the
     quantum-inspired evolutionary algorithm ([48] Lee et al.). *)

open Ocgra_dfg
open Ocgra_core
module Rng = Ocgra_util.Rng

(* Given scheduled times, bind greedily: process nodes by time, pick
   the capable PE (slot free) closest to the placed producers; route
   immediately through Place_route. *)
let greedy_bind (p : Problem.t) ws near rng ~ii times =
  let state = Place_route.create ~ws p ~ii in
  let cgra = p.cgra in
  let order =
    List.sort
      (fun a b -> compare (times.(a), a) (times.(b), b))
      (List.init (Dfg.node_count p.dfg) Fun.id)
  in
  let ok =
    List.for_all
      (fun v ->
        Place_route.gather state near v;
        let candidates =
          List.filter_map
            (fun pe ->
              if times.(v) < Place_route.est near pe || times.(v) > Place_route.lst near pe then None
              else begin
                let prox = max 0 (Place_route.proximity near pe) in
                Some (prox, Rng.int rng 16, pe)
              end)
            (Ocgra_arch.Cgra.capable_pes cgra (Dfg.op p.dfg v))
        in
        let candidates = List.sort compare candidates in
        List.exists (fun (_, _, pe) -> Place_route.place state v ~pe ~time:times.(v)) candidates)
      order
  in
  if ok then Place_route.to_mapping state else None

let list_scheduling =
  Mapper.make ~name:"list-scheduling" ~citation:"Zhao et al. [36]; Das et al. [24]; Bansal et al. [51]"
    ~scope:Taxonomy.Scheduling_only ~approach:Taxonomy.Heuristic
    (fun p rng dl obs ->
      Sched.with_schedule ~obs ~tag:"list-sched" ~counter:"sched.attempts"
        ~note:"modulo list scheduling + greedy binding" p rng ~restarts:10 ~dl
        (greedy_bind p (Route.workspace p.cgra) (Place_route.near p) rng))

(* ---------- clique-based binding ---------- *)

let clique_bind ~obs (p : Problem.t) ~ii times =
  let dfg = p.dfg and cgra = p.cgra in
  let n = Dfg.node_count dfg in
  let hop_table = Ocgra_arch.Cgra.hop_table cgra in
  (* vertices: compatible (node, pe) pairs *)
  let pairs =
    Array.of_list
      (List.concat_map
         (fun v -> List.map (fun pe -> (v, pe)) (Ocgra_arch.Cgra.capable_pes cgra (Dfg.op dfg v)))
         (List.init n Fun.id))
  in
  let np = Array.length pairs in
  let cg = Ocgra_graph.Clique.create np in
  let edges = Dfg.edges dfg in
  let compatible (u, pu) (v, pv) =
    u <> v
    && (pu <> pv || times.(u) mod ii <> times.(v) mod ii)
    && List.for_all
         (fun (e : Dfg.edge) ->
           let relevant = (e.src = u && e.dst = v) || (e.src = v && e.dst = u) in
           if not relevant then true
           else begin
             let src_pe = if e.src = u then pu else pv in
             let dst_pe = if e.dst = u then pu else pv in
             let lat = Op.latency (Dfg.op dfg e.src) in
             let slack = times.(e.dst) + (e.dist * ii) - times.(e.src) - lat in
             slack >= max 0 (hop_table.(src_pe).(dst_pe) - 1)
           end)
         edges
  in
  for i = 0 to np - 1 do
    for j = i + 1 to np - 1 do
      if compatible pairs.(i) pairs.(j) then Ocgra_graph.Clique.add_edge cg i j
    done
  done;
  let clique, _proven = Ocgra_graph.Clique.maximum ~max_steps:200_000 cg in
  if List.length clique < n then None
  else begin
    let binding = Array.make n (-1, -1) in
    List.iter
      (fun i ->
        let v, pe = pairs.(i) in
        if fst binding.(v) < 0 then binding.(v) <- (pe, times.(v)))
      clique;
    if Array.exists (fun (pe, _) -> pe < 0) binding then None
    else Finalize.of_binding ~obs p ~ii binding
  end

let clique_binding =
  Mapper.make ~name:"clique-binding" ~citation:"Dave et al. RAMP [38]; Hamzeh et al. REGIMap [46]"
    ~scope:Taxonomy.Binding_only ~approach:Taxonomy.Heuristic
    (fun p rng dl obs ->
      Sched.with_schedule ~obs ~tag:"clique" ~counter:"sched.attempts"
        ~note:"compatibility-graph maximum clique binding" p rng ~restarts:4 ~dl
        (clique_bind ~obs p))

(* ---------- QEA binding ---------- *)

let qea_bind ~obs (p : Problem.t) rng ~ii times =
  let dfg = p.dfg in
  let n = Dfg.node_count dfg in
  let hop_table = Ocgra_arch.Cgra.hop_table p.cgra in
  let capable =
    Array.init n (fun v -> Array.of_list (Ocgra_arch.Cgra.capable_pes p.cgra (Dfg.op dfg v)))
  in
  (* bits per node to index its capable list *)
  let bits_for v =
    let k = Array.length capable.(v) in
    let rec go b = if 1 lsl b >= k then b else go (b + 1) in
    max 1 (go 0)
  in
  let bit_offsets = Array.make n 0 in
  let total_bits = ref 0 in
  for v = 0 to n - 1 do
    bit_offsets.(v) <- !total_bits;
    total_bits := !total_bits + bits_for v
  done;
  let decode genome =
    Array.init n (fun v ->
        let k = Array.length capable.(v) in
        let b = bits_for v in
        let idx = ref 0 in
        for i = 0 to b - 1 do
          if genome.(bit_offsets.(v) + i) then idx := !idx lor (1 lsl i)
        done;
        capable.(v).(!idx mod k))
  in
  let fitness genome =
    let pes = decode genome in
    let usage = Hashtbl.create 32 in
    let collisions = ref 0 in
    Array.iteri
      (fun v pe ->
        let key = (pe, times.(v) mod ii) in
        if Hashtbl.mem usage key then incr collisions else Hashtbl.replace usage key ())
      pes;
    let timing = ref 0 in
    List.iter
      (fun (e : Dfg.edge) ->
        let lat = Op.latency (Dfg.op dfg e.src) in
        let slack = times.(e.dst) + (e.dist * ii) - times.(e.src) - lat in
        let needed = max 0 (hop_table.(pes.(e.src)).(pes.(e.dst)) - 1) in
        if slack < needed then timing := !timing + (needed - slack))
      (Dfg.edges dfg);
    -.float_of_int ((100 * !collisions) + (10 * !timing))
  in
  let genome, fit, evals =
    Ocgra_meta.Qea.run rng ~n_bits:!total_bits ~fitness ~stop_at:(-0.5)
  in
  Ocgra_obs.Ctx.add obs "qea.evaluations" evals;
  if fit < -0.5 then None
  else begin
    let pes = decode genome in
    let binding = Array.init n (fun v -> (pes.(v), times.(v))) in
    Finalize.of_binding ~obs p ~ii binding
  end

let qea_binding =
  Mapper.make ~name:"qea-binding" ~citation:"Lee et al. [48]"
    ~scope:Taxonomy.Binding_only ~approach:(Taxonomy.Meta_population "QEA")
    (fun p rng dl obs ->
      Sched.with_schedule ~obs ~tag:"qea" ~counter:"sched.attempts"
        ~note:"quantum-inspired evolutionary binding on a fixed schedule" p rng ~restarts:6 ~dl
        (qea_bind ~obs p rng))
