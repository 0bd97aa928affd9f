(* DRESC-style temporal mapping by simulated annealing ([22] Mei et
   al., the most influential CGRA compiler; also the SA modulo
   scheduler of [30]).

   For a candidate II, the state is a full binding node -> (pe, cycle);
   the cost prices FU slot collisions between operations and, for every
   dependence, the congestion-priced routing cost (overuse allowed
   while annealing).  When the annealer reaches a collision-free state,
   the binding is strict-routed into a real mapping; the II loop starts
   at MII. *)

open Ocgra_dfg
open Ocgra_core
module Rng = Ocgra_util.Rng

type state = { binding : (int * int) array }

(* Annealing cost (cheap, O(nodes + edges)): FU slot overuse between
   operations, timing infeasibility of each dependence against the
   hop-distance lower bound, and wirelength — the classic SA placement
   cost, with the real router only consulted at extraction time. *)
let cost (p : Problem.t) hop_table ~ii (s : state) =
  let npe = Ocgra_arch.Cgra.pe_count p.cgra in
  let fu = Array.make (npe * ii) 0 in
  Array.iter
    (fun (pe, time) ->
      let i = (pe * ii) + (((time mod ii) + ii) mod ii) in
      fu.(i) <- fu.(i) + 1)
    s.binding;
  let collisions = Array.fold_left (fun acc c -> acc + max 0 (c - 1)) 0 fu in
  let timing = ref 0 and wire = ref 0 in
  List.iter
    (fun (e : Dfg.edge) ->
      let pu, tu = s.binding.(e.src) and pv, tv = s.binding.(e.dst) in
      let lat = Op.latency (Dfg.op p.dfg e.src) in
      let slack = tv + (e.dist * ii) - tu - lat in
      let needed = max 0 (hop_table.(pu).(pv) - 1) in
      if slack < needed then timing := !timing + (needed - slack)
      else begin
        wire := !wire + needed;
        (* waiting cycles must be absorbed by holds or detours: cheap
           but not free *)
        wire := !wire + ((slack - needed) / 2)
      end)
    (Dfg.edges p.dfg);
  float_of_int ((1000 * collisions) + (300 * !timing) + !wire)

let random_binding (p : Problem.t) rng ~ii ~horizon =
  let asap = Dfg.asap p.dfg in
  Array.init (Dfg.node_count p.dfg) (fun v ->
      let pe = Rng.choose_list rng (Ocgra_arch.Cgra.capable_pes p.cgra (Dfg.op p.dfg v)) in
      let time = min (horizon - 1) (asap.(v) + Rng.int rng (max 1 ii)) in
      (pe, time))

let neighbour (p : Problem.t) ~ii ~horizon rng (s : state) =
  let binding = Array.copy s.binding in
  let v = Rng.int rng (Array.length binding) in
  let pe, time = binding.(v) in
  (if Rng.bool rng then begin
     (* move in space *)
     let capable = Ocgra_arch.Cgra.capable_pes p.cgra (Dfg.op p.dfg v) in
     binding.(v) <- (Rng.choose_list rng capable, time)
   end
   else begin
     (* move in time *)
     let dt = Rng.int_in rng (-ii) ii in
     let time' = max 0 (min (horizon - 1) (time + dt)) in
     binding.(v) <- (pe, time')
   end);
  { binding }

(* One annealing run under the default schedule + extraction at a
   fixed II. *)
let try_ii (p : Problem.t) rng ~ii ~obs =
  let horizon = Problem.max_time p in
  let hop_table = Ocgra_arch.Cgra.hop_table p.cgra in
  let init = { binding = random_binding p rng ~ii ~horizon } in
  let best, _best_cost, (stats : Ocgra_meta.Sa.stats) =
    Ocgra_meta.Sa.run ~config:Ocgra_meta.Sa.default_config rng ~init
      ~neighbour:(neighbour p ~ii ~horizon)
      ~cost:(cost p hop_table ~ii)
  in
  Ocgra_obs.Ctx.add obs "sa.steps" stats.steps;
  Ocgra_obs.Ctx.add obs "sa.accepted" stats.accepted;
  (* strict extraction; also try a few perturbed variants in case the
     annealed optimum is slightly over-subscribed for the real router *)
  let rec attempt_extract k state =
    if k <= 0 then None
    else
      match Finalize.of_binding ~obs p ~ii state.binding with
      | Some m -> Some m
      | None -> attempt_extract (k - 1) (neighbour p ~ii ~horizon rng state)
  in
  attempt_extract 8 best

let mapper =
  Mapper.make ~name:"dresc-sa" ~citation:"Mei et al. [22]; Hatanaka & Bagherzadeh [30]"
    ~scope:Taxonomy.Temporal_mapping ~approach:(Taxonomy.Meta_local "SA")
    (fun p rng dl obs ->
      let note = "simulated annealing over bindings, congestion-priced routing" in
      match p.kind with
      | Problem.Spatial -> Mapper.outcome ~attempts:0 ~note None
      | Problem.Temporal { max_ii; _ } ->
          let attempts = ref 0 in
          let s =
            Mapper.sweep ~max_ii dl p (fun ii ->
                Mapper.mapped_or_gave_up
                  (Mapper.tries 3 dl (fun _ ->
                       incr attempts;
                       Mapper.mapped_or_gave_up
                         (Ocgra_obs.Ctx.span obs ~cat:"sa" (Printf.sprintf "sa:ii=%d" ii)
                            (fun () -> try_ii p rng ~ii ~obs)))))
          in
          Mapper.outcome ~proven:s.proven ~attempts:!attempts s.found ~note)
