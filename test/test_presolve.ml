(* Structural presolve: the rows it must refute (with their exact
   numbers), the optima it must leave alone, a checker that rejects
   tampered certificates, and a randomised soundness/differential
   harness against the raw SAT sweep — for the presolve's certificates,
   for the embedding rule on tight II=1 draws, and for the bound probe
   at the first II they leave open. *)

open Ocgra_core
module Kernels = Ocgra_workloads.Kernels
module Cgra = Ocgra_arch.Cgra
module Fault = Ocgra_arch.Fault
module Dfg = Ocgra_dfg.Dfg
module Op = Ocgra_dfg.Op
module Iso = Ocgra_graph.Iso
module Rng = Ocgra_util.Rng
module Sat_temporal = Ocgra_mappers.Sat_temporal

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let problem ?(faults = []) name grid =
  let k = Kernels.find name in
  let cgra = Cgra.with_faults (Cgra.uniform ~rows:grid ~cols:grid ()) faults in
  Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra ()

let refute_exn p ~ii label =
  match Presolve.refute p ~ii with
  | Some c -> c
  | None -> Alcotest.failf "%s II=%d should be refuted" label ii

(* ---------- the four refuted rows ---------- *)

let test_slot_count_rows () =
  List.iter
    (fun (name, grid, faults, ii, needed, live) ->
      let label = Printf.sprintf "%s %dx%d %s" name grid grid (Fault.list_to_string faults) in
      let p = problem ~faults name grid in
      let c = refute_exn p ~ii label in
      (match c.Presolve.rule with
      | Presolve.Slot_count r ->
          checki (label ^ " needed") needed r.needed;
          checki (label ^ " live") live r.live
      | Presolve.Neighbourhood _ | Presolve.Embedding _ ->
          Alcotest.failf "%s: expected the slot count" label);
      checkb (label ^ " fu-hop") true (c.Presolve.model = Mrrg.Fu_hop);
      checkb (label ^ " certificate checks") true (Presolve.check p c))
    [
      ("absdiff", 2, [], 2, 9, 8);
      ("mix-round", 2, [], 3, 14, 12);
      ("fir4", 4, [], 1, 17, 16);
      (* two dead slots refute mix-round's healthy optimum II=4 *)
      ("mix-round", 2, [ Fault.Fu_slot_dead (1, 3); Fault.Fu_slot_dead (2, 0) ], 4, 15, 14);
    ];
  (* one dead slot leaves exactly the 15 slots it needs *)
  checkb "mix-round 2x2 one dead slot II=4 open" true
    (Presolve.refute (problem ~faults:[ Fault.Fu_slot_dead (1, 3) ] "mix-round" 2) ~ii:4 = None)

let test_neighbourhood_row () =
  let p = problem "absdiff" 4 in
  let c = refute_exn p ~ii:1 "absdiff 4x4" in
  (match c.Presolve.rule with
  | Presolve.Neighbourhood { node; degree; room } ->
      checkb "the sub node" true (Dfg.op p.dfg node = Ocgra_dfg.Op.Binop Ocgra_dfg.Op.Sub);
      checki "degree" 5 degree;
      checki "room" 4 room
  | Presolve.Slot_count _ | Presolve.Embedding _ ->
      Alcotest.fail "absdiff 4x4 II=1: expected the neighbourhood rule");
  checkb "certificate checks" true (Presolve.check p c);
  Alcotest.(check string)
    "rendered" "II=1 refuted by neighbourhood: n2 (sub) has 5 neighbours > room 4 [fu-hop]"
    (Presolve.to_string p c)

(* A link down one way still joins its two PEs the other way.  Each
   interior PE loses one link out to a border neighbour and one link in
   from another: counting one direction only would leave every room at
   3, counting both keeps the interior rooms at 4. *)
let test_one_way_links_count () =
  let faults =
    List.concat_map
      (fun (q, out_to, in_from) -> [ Fault.Link_down (q, out_to); Fault.Link_down (in_from, q) ])
      [ (5, 1, 4); (6, 2, 7); (9, 8, 13); (10, 11, 14) ]
  in
  let p = problem ~faults "absdiff" 4 in
  match (refute_exn p ~ii:1 "absdiff 4x4 one-way").Presolve.rule with
  | Presolve.Neighbourhood { room; _ } -> checki "room counts in-links" 4 room
  | Presolve.Slot_count _ | Presolve.Embedding _ -> Alcotest.fail "expected the neighbourhood rule"

(* matvec2's 9 ops fill the 3x3 array at II=1, so no edge can take a
   hop, and its DFG does not embed in the mesh: both embedders search
   to the end and find nothing. *)
let test_embedding_row () =
  let p = problem "matvec2" 3 in
  let c = refute_exn p ~ii:1 "matvec2 3x3" in
  (match c.Presolve.rule with
  | Presolve.Embedding { ops; slots; vf2_nodes; dfs_nodes } ->
      checki "ops" 9 ops;
      checki "slots" 9 slots;
      checki "VF2 nodes" 446 vf2_nodes;
      checki "DFS nodes" 422 dfs_nodes
  | Presolve.Slot_count _ | Presolve.Neighbourhood _ -> Alcotest.fail "expected the embedding rule");
  checkb "certificate checks" true (Presolve.check p c);
  Alcotest.(check string)
    "rendered"
    "II=1 refuted by embedding: 9 ops fill 9 slots, no hop-free placement (search nodes: VF2 446, \
     DFS 422) [fu-hop]"
    (Presolve.to_string p c);
  (* no other II, and not II=1 when a spare PE leaves room for hops *)
  checkb "II=2 open" true (Presolve.refute p ~ii:2 = None);
  checkb "4x4 II=1 open" true (Presolve.refute (problem "matvec2" 4) ~ii:1 = None)

(* A search that runs out of budget proves nothing: the rule abstains
   and the checker rejects, whatever the other embedder says. *)
let test_embedding_budget () =
  let p = problem "matvec2" 3 in
  let c = refute_exn p ~ii:1 "matvec2 3x3" in
  let exhausted (verdict, nodes) = verdict = Iso.Exhausted && nodes = 10 in
  checkb "VF2 exhausted" true (exhausted (Presolve.vf2_embedding ~budget:10 p));
  checkb "DFS exhausted" true (exhausted (Presolve.dfs_embedding ~budget:10 p));
  checkb "rule abstains" true (Presolve.refute ~budget:10 p ~ii:1 = None);
  checkb "checker rejects" false (Presolve.check ~budget:10 p c);
  (* one node short of the checker's complete search is still too few *)
  (match c.Presolve.rule with
  | Presolve.Embedding { dfs_nodes; _ } ->
      checkb "budget one short" false (Presolve.check ~budget:(dfs_nodes - 1) p c);
      checkb "budget exact" true (Presolve.check ~budget:dfs_nodes p c)
  | Presolve.Slot_count _ | Presolve.Neighbourhood _ -> Alcotest.fail "expected the embedding rule")

(* ---------- what it must not refute ---------- *)

let test_optima_not_refuted () =
  List.iter
    (fun (name, grid, ii) ->
      checkb
        (Printf.sprintf "%s %dx%d II=%d not refuted" name grid grid ii)
        true
        (Presolve.refute (problem name grid) ~ii = None))
    [
      ("running-max", 2, 2);
      (* the six optima the exact-sat workload proves *)
      ("running-max", 2, 3); ("absdiff", 2, 3); ("mix-round", 2, 4); ("matvec2", 3, 2);
      ("absdiff", 4, 2); ("fir4", 4, 2);
    ]

(* ---------- the checker is not trusted blindly ---------- *)

let test_tampered_rejected () =
  let p = problem "absdiff" 2 in
  let c = refute_exn p ~ii:2 "absdiff 2x2" in
  (match c.Presolve.rule with
  | Presolve.Slot_count ({ y; needed; _ } as r) ->
      let edges = Array.of_list (Dfg.edges p.dfg) in
      (* bump one multiplier on an edge whose cost is non-zero *)
      let i =
        let rec find i =
          let e = edges.(i) in
          if Ocgra_dfg.Op.latency (Dfg.op p.dfg e.Dfg.src) - (e.Dfg.dist * 2) <> 0 then i
          else find (i + 1)
        in
        find 0
      in
      let y' = Array.copy y in
      y'.(i) <- y'.(i) + 1;
      let tampered rule = Presolve.check p { c with Presolve.rule } in
      checkb "y_e changed" false (tampered (Presolve.Slot_count { r with y = y' }));
      checkb "negative y" false
        (tampered (Presolve.Slot_count { r with y = Array.map (fun v -> v - 1) y }));
      checkb "short y" false (tampered (Presolve.Slot_count { r with y = [||] }));
      checkb "needed inflated" false (tampered (Presolve.Slot_count { r with needed = needed + 1 }));
      checkb "wrong II" false (Presolve.check p { c with Presolve.ii = 3 });
      (* a self-consistent forgery against the feasible II=3: one huge
         multiplier inflates the bound, and only the node inequalities
         can expose it *)
      let forged = Array.make (Array.length edges) 1 in
      forged.(0) <- 100;
      let bound =
        Ocgra_dfg.Op.latency (Dfg.op p.dfg edges.(0).Dfg.src) - (edges.(0).Dfg.dist * 3)
      in
      (* a healthy array: every (PE, slot) pair is live *)
      let live = Cgra.pe_count p.cgra * 3 in
      checkb "forged multipliers" false
        (Presolve.check p
           {
             c with
             Presolve.ii = 3;
             rule =
               Presolve.Slot_count
                 { needed = Dfg.node_count p.dfg + (bound * 99); live; y = forged };
           })
  | Presolve.Neighbourhood _ | Presolve.Embedding _ -> Alcotest.fail "expected the slot count");
  let p4 = problem "absdiff" 4 in
  let c4 = refute_exn p4 ~ii:1 "absdiff 4x4" in
  (match c4.Presolve.rule with
  | Presolve.Neighbourhood r ->
      let tampered rule = Presolve.check p4 { c4 with Presolve.rule } in
      checkb "room inflated" false (tampered (Presolve.Neighbourhood { r with room = r.room + 1 }));
      checkb "degree inflated" false
        (tampered (Presolve.Neighbourhood { r with degree = r.degree + 1 }));
      checkb "other node" false
        (tampered (Presolve.Neighbourhood { r with node = (r.node + 1) mod Dfg.node_count p4.dfg }));
      checkb "not at II=1" false (Presolve.check p4 { c4 with Presolve.ii = 2 })
  | Presolve.Slot_count _ | Presolve.Embedding _ -> Alcotest.fail "expected the neighbourhood rule");
  let p3 = problem "matvec2" 3 in
  let c3 = refute_exn p3 ~ii:1 "matvec2 3x3" in
  match c3.Presolve.rule with
  | Presolve.Embedding r ->
      let tampered rule = Presolve.check p3 { c3 with Presolve.rule } in
      checkb "embedding at II=2" false (Presolve.check p3 { c3 with Presolve.ii = 2 });
      checkb "DFS nodes changed" false
        (tampered (Presolve.Embedding { r with dfs_nodes = r.dfs_nodes + 1 }));
      checkb "slots inflated" false (tampered (Presolve.Embedding { r with slots = 10 }));
      (* on 4x4 the 9 ops leave 7 slots for hops: not tight *)
      checkb "not tight" false (Presolve.check (problem "matvec2" 4) c3);
      (* one PE fault makes a 3-op chain tight on 2x2, where it embeds
         along the three PEs left: a forged certificate must fail on
         the embedding the checker finds *)
      let g = Dfg.create () in
      ignore (Dfg.output g "y" (Dfg.unop g Op.Neg (Dfg.input g "x")));
      let chain =
        Problem.temporal ~dfg:g
          ~cgra:(Cgra.with_faults (Cgra.uniform ~rows:2 ~cols:2 ()) [ Fault.Pe_down 3 ])
          ()
      in
      checkb "chain embeds" true
        (match Presolve.dfs_embedding chain with Iso.Found _, _ -> true | _ -> false);
      checkb "chain not refuted" true (Presolve.refute chain ~ii:1 = None);
      checkb "forged on an embeddable problem" false
        (Presolve.check chain
           { c3 with Presolve.rule = Presolve.Embedding { r with ops = 3; slots = 3 } })
  | Presolve.Slot_count _ | Presolve.Neighbourhood _ -> Alcotest.fail "expected the embedding rule"

let test_first_open () =
  let p = problem "mix-round" 2 in
  let start, certs = Presolve.first_open p ~from:3 ~upto:8 in
  checki "mix-round 2x2 starts at 4" 4 start;
  checki "one certificate" 1 (List.length certs);
  let start, certs = Presolve.first_open p ~from:4 ~upto:8 in
  checki "nothing to refute from 4" 4 start;
  checki "no certificates" 0 (List.length certs)

(* ---------- soundness and differential, randomised ---------- *)

(* Random kernels of at most 10 nodes on 2x2/3x3/4x4 grids under random
   fault masks (plus, half the time, one extra one-way link fault).
   Whenever the presolve refutes IIs, the raw sweep from MII — at slack
   3 and at slack 5 — must not find any of them satisfiable; and the
   presolve sweep must reach the raw sweep's final II.  A candidate II
   on which the solver hits its conflict budget proves nothing: it is
   counted as inconclusive, not as a pass. *)
let budget = 2000
let confirmed = ref 0
let inconclusive = ref 0
let compared = ref 0

let random_case (seed, grid, nodes, nfaults, link) =
  let rng = Rng.create seed in
  let params = { Ocgra_workloads.Random_dfg.default with nodes; layers = max 1 (nodes / 3) } in
  let dfg, _ = Ocgra_workloads.Random_dfg.generate ~params rng in
  let base = Cgra.uniform ~rows:grid ~cols:grid () in
  let mask = Cgra.inject_faults base ~seed ~n:nfaults in
  let extra =
    if link then
      let q = Rng.int rng (Cgra.pe_count base) in
      [ Fault.Link_down (q, Rng.choose_list rng (Cgra.raw_neighbours base q)) ]
    else []
  in
  (dfg, Cgra.with_faults base (mask @ extra))

(* One sweep — with [~presolve:true] it is the registered mapper's
   code path, under a test budget: (final II, conclusive?, per-II
   solver verdicts). *)
let sweep ?slack ?(max_conflicts = budget) ~presolve p =
  let obs = Ocgra_obs.Ctx.create () in
  let m, _, proven, note =
    Sat_temporal.map ?slack ~max_conflicts ~obs ~presolve p (Rng.create 1)
  in
  let verdicts =
    List.filter_map
      (fun (e : Ocgra_obs.Events.event) ->
        match (e.name, e.args) with
        | "sat.ii", ("ii", Ocgra_obs.Events.Int ii) :: ("verdict", Ocgra_obs.Events.Str v) :: _ ->
            Some (ii, v)
        | _ -> None)
      (Ocgra_obs.Events.events (Ocgra_obs.Ctx.events obs))
  in
  match m with
  | Some m -> (Some m.Mapping.ii, proven, verdicts)
  | None -> (None, not (String.starts_with ~prefix:"budget" note), verdicts)

(* Every certified II the raw sweep reached must be UNSAT, or UNKNOWN
   (inconclusive); a SAT verdict on one is a soundness failure. *)
let tally ~start verdicts =
  List.for_all
    (fun (ii, v) ->
      if ii >= start then true
      else
        match v with
        | "unsat" -> incr confirmed; true
        | "unknown" -> incr inconclusive; true
        | _ -> false)
    verdicts

let sound_and_same case =
  let dfg, cgra = random_case case in
  let mii = Mii.mii dfg cgra in
  let from = max 1 mii in
  let p = Problem.temporal ~dfg ~cgra ~max_ii:(from + 3) () in
  if Dfg.node_count dfg > 10 || mii = max_int || not (Problem.mappable p) then true
  else
    let start, certs = Presolve.first_open p ~from ~upto:(from + 3) in
    if certs = [] then true (* nothing refuted: both sweeps are the same sweep *)
    else begin
      let capped = Problem.temporal ~dfg ~cgra ~max_ii:(start + 1) () in
      let raw, raw_ok, raw_verdicts = sweep ~presolve:false capped in
      let pre, pre_ok, _ = sweep ~presolve:true capped in
      (* slack 5 only has to refute the certified IIs *)
      let _, _, slack5_verdicts =
        sweep ~slack:5 ~presolve:false (Problem.temporal ~dfg ~cgra ~max_ii:(start - 1) ())
      in
      if raw_ok && pre_ok then incr compared;
      tally ~start raw_verdicts
      && tally ~start slack5_verdicts
      && ((not (raw_ok && pre_ok)) || raw = pre)
    end

(* [random_case] rarely fills an array exactly.  This arm draws the
   fault mask first — random faults plus each directed link down with
   probability 1/6, so most masks hold one-way links — and then a
   kernel with exactly as many ops as live PEs.  Half the kernels are
   levelled (each op reads only the level before it), which keeps
   H_min = 0 and so lets the embedding rule fire; the rest read any
   earlier op.  Accumulators add self-loops, and an op reading one
   value twice a parallel edge. *)
let arith = [| Op.Add; Op.Sub; Op.Mul; Op.Xor; Op.Min; Op.Max |]

let kernel_of_size rng ~levelled k =
  let g = Dfg.create () in
  let n_inputs = 1 + Rng.int rng (max 1 ((k - 1) / 3)) in
  let prev = ref (List.init n_inputs (fun i -> Dfg.input g (Printf.sprintf "in%d" i))) in
  let cur = ref [] and last = ref (-1) in
  for _ = 1 to k - n_inputs - 1 do
    if levelled && !cur <> [] && Rng.int rng 3 = 0 then begin
      prev := !cur;
      cur := []
    end;
    let pick () = Rng.choose_list rng (if levelled then !prev else !cur @ !prev) in
    let v =
      if Rng.int rng 5 = 0 then begin
        let acc = Dfg.add g (Op.Binop Op.Add) in
        Dfg.add_edge g ~src:(pick ()) ~dst:acc ~port:0;
        Dfg.add_edge g ~src:acc ~dst:acc ~port:1 ~dist:1;
        acc
      end
      else Dfg.binop g (Rng.choose rng arith) (pick ()) (pick ())
    in
    cur := v :: !cur;
    last := v
  done;
  ignore (Dfg.output g "out" !last);
  g

let tight_case (seed, grid, nfaults, levelled) =
  let rng = Rng.create seed in
  let base = Cgra.uniform ~rows:grid ~cols:grid () in
  let links =
    List.filter_map
      (fun (a, b) -> if Rng.int rng 6 = 0 then Some (Fault.Link_down (a, b)) else None)
      (List.concat_map
         (fun i -> List.map (fun j -> (i, j)) (Cgra.raw_neighbours base i))
         (List.init (Cgra.pe_count base) Fun.id))
  in
  let cgra = Cgra.with_faults base (Cgra.inject_faults base ~seed ~n:nfaults @ links) in
  let live =
    List.length
      (List.filter
         (fun pe -> Cgra.pe_ok cgra pe && Cgra.slot_ok cgra ~pe ~ii:1 ~time:0)
         (List.init (Cgra.pe_count cgra) Fun.id))
  in
  if live < 3 then None else Some (kernel_of_size rng ~levelled live, cgra)

(* On every tight draw the two embedders agree whenever both finish,
   and an embedding refutation of II=1 holds under the raw sweep.  A
   tight II=1 is hard for the solver (matvec2 3x3 takes ~12k
   conflicts), so this arm gives it a larger budget. *)
let tight_budget = 20_000

let embedding_refutations = ref 0

let embedding_sound case =
  match tight_case case with
  | None -> true
  | Some (dfg, cgra) -> (
      let p = Problem.temporal ~dfg ~cgra ~max_ii:1 () in
      let agree =
        match (fst (Presolve.vf2_embedding p), fst (Presolve.dfs_embedding p)) with
        | Iso.Found _, Iso.Absent | Iso.Absent, Iso.Found _ -> false
        | _ -> true
      in
      agree
      &&
      match Presolve.refute p ~ii:1 with
      | Some ({ Presolve.rule = Presolve.Embedding _; _ } as c) ->
          incr embedding_refutations;
          let raw, _, verdicts = sweep ~max_conflicts:tight_budget ~presolve:false p in
          Presolve.check p c && raw = None && tally ~start:2 verdicts
      | _ -> true)

let test_random_soundness () =
  let arb =
    QCheck.make
      QCheck.Gen.(tup5 (int_bound 1_000_000) (int_range 2 4) (int_range 2 4) (int_bound 6) bool)
      ~print:(fun (s, g, n, f, l) ->
        Printf.sprintf "seed %d grid %d nodes %d faults %d link %b" s g n f l)
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 17 |])
    (QCheck.Test.make ~name:"presolve refutations hold under the raw sweep" ~count:100 arb
       sound_and_same);
  Printf.printf
    "refuted IIs confirmed UNSAT: %d, inconclusive (budget): %d; final IIs compared: %d\n"
    !confirmed !inconclusive !compared;
  checkb "some refutations were confirmed" true (!confirmed >= 5);
  checkb "some final IIs were compared" true (!compared >= 3);
  let confirmed_before = !confirmed and inconclusive_before = !inconclusive in
  let arb =
    QCheck.make
      QCheck.Gen.(tup4 (int_bound 1_000_000) (int_range 2 3) (int_bound 3) bool)
      ~print:(fun (s, g, f, l) -> Printf.sprintf "seed %d grid %d faults %d levelled %b" s g f l)
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 21 |])
    (QCheck.Test.make ~name:"embedding refutations hold under the raw sweep" ~count:150 arb
       embedding_sound);
  Printf.printf "embedding refutations: %d, confirmed UNSAT by the raw sweep: %d, inconclusive: %d\n"
    !embedding_refutations (!confirmed - confirmed_before) (!inconclusive - inconclusive_before);
  checkb "some embedding refutations were confirmed" true (!confirmed - confirmed_before >= 5)

(* Whenever the bound probe maps — certificate or not — its mapping
   validates, and a conclusive raw sweep capped at the probe's II
   reaches that same II: the probe never answers where the solver's
   own model would not. *)
let probe_hits = ref 0
let probe_compared = ref 0

let probe_agrees case =
  let dfg, cgra = random_case case in
  let mii = Mii.mii dfg cgra in
  let p = Problem.temporal ~dfg ~cgra ~max_ii:(max 1 mii + 3) () in
  if Dfg.node_count dfg > 10 || mii = max_int || not (Problem.mappable p) then true
  else
    let obs = Ocgra_obs.Ctx.create () in
    let m, _, _, _ = Sat_temporal.map ~max_conflicts:budget ~obs ~presolve:true p (Rng.create 1) in
    match m with
    | Some m when Ocgra_obs.Metrics.get (Ocgra_obs.Ctx.metrics obs) "sat.bound_hits" = 1 ->
        incr probe_hits;
        let raw, raw_ok, _ =
          sweep ~presolve:false (Problem.temporal ~dfg ~cgra ~max_ii:m.Mapping.ii ())
        in
        if raw_ok then incr probe_compared;
        Check.validate p m = [] && ((not raw_ok) || raw = Some m.Mapping.ii)
    | _ -> true

let test_random_probe () =
  let arb =
    QCheck.make
      QCheck.Gen.(tup5 (int_bound 1_000_000) (int_range 2 4) (int_range 2 4) (int_bound 6) bool)
      ~print:(fun (s, g, n, f, l) ->
        Printf.sprintf "seed %d grid %d nodes %d faults %d link %b" s g n f l)
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 20 |])
    (QCheck.Test.make ~name:"bound-probe mappings validate and match the raw sweep" ~count:100
       arb probe_agrees);
  Printf.printf "bound-probe hits: %d; compared with a conclusive raw sweep: %d\n" !probe_hits
    !probe_compared;
  checkb "some probe hits were compared" true (!probe_compared >= 10)

(* ---------- the registered mapper ---------- *)

(* The bound probe on the six exact-sat kernels (the perfbench seed):
   it answers absdiff 2x2, matvec2 3x3 (once the embedding rule has
   refuted II=1) and fir4 4x4 with no solver call and misses on the
   other three, and every kernel keeps its II and proof. *)
let test_bound_probe_verdicts () =
  List.iter
    (fun (name, grid, ii, attempts, hit) ->
      let label = Printf.sprintf "%s %dx%d" name grid grid in
      let obs = Ocgra_obs.Ctx.create () in
      let o = Mapper.run (Ocgra_mappers.Registry.find "sat") ~obs (problem name grid) in
      let get = Ocgra_obs.Metrics.get (Ocgra_obs.Ctx.metrics obs) in
      (match o.Mapper.mapping with
      | Some m -> checki (label ^ " II") ii m.Mapping.ii
      | None -> Alcotest.failf "%s maps" label);
      checkb (label ^ " proven") true o.Mapper.proven_optimal;
      checki (label ^ " attempts") attempts o.Mapper.attempts;
      checki (label ^ " probe hit") (Bool.to_int hit) (get "sat.bound_hits");
      checkb (label ^ " solver ran iff the probe missed") (not hit) (get "sat.decisions" > 0))
    [
      ("running-max", 2, 3, 2, false); ("absdiff", 2, 3, 1, true); ("mix-round", 2, 4, 1, false);
      ("matvec2", 3, 2, 1, true); ("absdiff", 4, 2, 1, false); ("fir4", 4, 2, 1, true);
    ]

let test_mapper_skips_refuted () =
  let p = problem "absdiff" 2 in
  let obs = Ocgra_obs.Ctx.create () in
  let o = Mapper.run (Ocgra_mappers.Registry.find "sat") ~seed:1 ~obs p in
  (match o.Mapper.mapping with
  | Some m -> checki "II" 3 m.Mapping.ii
  | None -> Alcotest.fail "absdiff 2x2 maps");
  checkb "proven" true o.Mapper.proven_optimal;
  checki "one solver attempt" 1 o.Mapper.attempts;
  checki "one presolved II" 1 (Ocgra_obs.Metrics.get (Ocgra_obs.Ctx.metrics obs) "sat.presolved");
  checkb "note names the certificate" true
    (o.Mapper.note = "presolve: II=2 refuted by slot count 9 > 8 [fu-hop]");
  (* the raw sweep still starts at MII *)
  let _, attempts, _, _ = Sat_temporal.map p (Rng.create 1) in
  checki "raw sweep attempts" 2 attempts;
  (* every candidate refuted: no solver call at all *)
  let k = Kernels.find "mix-round" in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:(Cgra.uniform ~rows:2 ~cols:2 ()) ~max_ii:3 () in
  let o = Mapper.run (Ocgra_mappers.Registry.find "sat") ~seed:1 p in
  checkb "unmapped" true (o.Mapper.mapping = None);
  checki "no solver attempt" 0 o.Mapper.attempts;
  Alcotest.(check string)
    "note" "unsat up to max II; presolve: II=3 refuted by slot count 14 > 12 [fu-hop]"
    o.Mapper.note

let () =
  Alcotest.run "presolve"
    [
      ( "rules",
        [
          Alcotest.test_case "slot-count rows" `Quick test_slot_count_rows;
          Alcotest.test_case "neighbourhood row" `Quick test_neighbourhood_row;
          Alcotest.test_case "one-way links count" `Quick test_one_way_links_count;
          Alcotest.test_case "embedding row" `Quick test_embedding_row;
          Alcotest.test_case "embedding budget exhausted" `Quick test_embedding_budget;
          Alcotest.test_case "optima not refuted" `Quick test_optima_not_refuted;
          Alcotest.test_case "tampered certificates rejected" `Quick test_tampered_rejected;
          Alcotest.test_case "first open II" `Quick test_first_open;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "mapper skips refuted IIs" `Quick test_mapper_skips_refuted;
          Alcotest.test_case "random soundness and differential" `Slow test_random_soundness;
          Alcotest.test_case "bound-probe verdicts" `Slow test_bound_probe_verdicts;
          Alcotest.test_case "random bound-probe agreement" `Slow test_random_probe;
        ] );
    ]
