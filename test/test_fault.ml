(* Fault-aware mapping tests: the fault model itself, seeded injection,
   validator and simulator enforcement, the deadline/fallback harness,
   and a registry-wide sweep on healthy and degraded arrays. *)

open Ocgra_core
module Cgra = Ocgra_arch.Cgra
module Fault = Ocgra_arch.Fault
module Kernels = Ocgra_workloads.Kernels
module Rng = Ocgra_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let cgra44 = Cgra.uniform ~rows:4 ~cols:4 ()
let cgra_diag = Cgra.uniform ~topology:Ocgra_arch.Topology.Diagonal ~rows:4 ~cols:4 ()

let contains msg sub =
  let n = String.length msg and m = String.length sub in
  let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
  go 0

(* ---------- the fault model ---------- *)

let test_fault_model () =
  let c =
    Cgra.with_faults cgra44
      [ Fault.Pe_down 5; Fault.Link_down (1, 2); Fault.Fu_slot_dead (3, 1); Fault.Rf_reduced (4, 2) ]
  in
  checkb "downed pe not ok" false (Cgra.pe_ok c 5);
  checkb "healthy pe ok" true (Cgra.pe_ok c 0);
  checkb "downed link not ok" false (Cgra.link_ok c 1 2);
  checkb "reverse link ok (directed)" true (Cgra.link_ok c 2 1);
  (* slot 1 of pe 3 dead: bites exactly when time mod ii = 1 and ii > 1 *)
  checkb "dead slot at ii=2 t=1" false (Cgra.slot_ok c ~pe:3 ~ii:2 ~time:1);
  checkb "dead slot at ii=2 t=3" false (Cgra.slot_ok c ~pe:3 ~ii:2 ~time:3);
  checkb "other slot fine" true (Cgra.slot_ok c ~pe:3 ~ii:2 ~time:0);
  checkb "ii=1 never hits slot 1" true (Cgra.slot_ok c ~pe:3 ~ii:1 ~time:7);
  (* rf reduction clamps at 0; downed PE has no RF at all *)
  let full = Cgra.effective_rf_size cgra44 4 in
  checki "rf reduced" (max 0 (full - 2)) (Cgra.effective_rf_size c 4);
  checki "downed pe rf" 0 (Cgra.effective_rf_size c 5);
  (* masked adjacency *)
  checkb "down pe has no neighbours" true (Cgra.neighbours c 5 = []);
  checkb "down pe unreachable" true (not (List.mem 5 (Cgra.neighbours c 6)));
  checkb "dead link masked" true (not (List.mem 2 (Cgra.neighbours c 1)));
  checkb "raw adjacency keeps the wire" true (List.mem 2 (Cgra.raw_neighbours c 1));
  checkb "down pe supports nothing" false (Cgra.supports c 5 Ocgra_dfg.Op.Nop);
  (* rendering *)
  checkb "to_string names the pe" true (contains (Fault.list_to_string [ Fault.Pe_down 5 ]) "5");
  Alcotest.(check string) "empty set renders none" "none" (Fault.list_to_string [])

let test_fault_dedup () =
  let c = Cgra.with_faults cgra44 [ Fault.Pe_down 3; Fault.Pe_down 3; Fault.Pe_down 3 ] in
  checki "deduplicated" 1 (List.length (Cgra.faults c))

let test_injection_deterministic () =
  let f1 = Cgra.inject_faults cgra44 ~seed:7 ~n:3 in
  let f2 = Cgra.inject_faults cgra44 ~seed:7 ~n:3 in
  checkb "same seed, same faults" true (f1 = f2);
  let f3 = Cgra.inject_faults cgra44 ~seed:8 ~n:3 in
  checkb "seeds independent" true (f1 <> f3 || f1 = f3 (* both legal; just must not raise *));
  checki "requested count" 3 (List.length f1);
  checki "distinct" 3 (List.length (Fault.canonical f1))

(* ---------- validator enforcement (property) ---------- *)

(* Map a kernel on the healthy array, then fault a resource the mapping
   uses: the validator must reject with a message naming the fault. *)
let qcheck_fault_on_used_resource_rejects =
  QCheck.Test.make ~name:"fault on a used resource yields a naming violation" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let k = Kernels.find (if seed mod 2 = 0 then "fir4" else "dot-product") in
      let p = Problem.temporal ~init:k.Kernels.init ~dfg:k.Kernels.dfg ~cgra:cgra44 ~max_ii:8 () in
      match Ocgra_mappers.Constructive.map p (Rng.create seed) with
      | None, _, _ -> QCheck.assume_fail ()
      | Some m, _, _ ->
          let rng = Rng.create (seed + 1) in
          let used_pe, _ = m.Mapping.binding.(Rng.int rng (Array.length m.Mapping.binding)) in
          let faulted = Cgra.with_faults cgra44 [ Fault.Pe_down used_pe ] in
          let p' =
            Problem.temporal ~init:k.Kernels.init ~dfg:k.Kernels.dfg ~cgra:faulted ~max_ii:8 ()
          in
          let violations = Check.validate p' m in
          violations <> []
          && List.exists
               (fun v -> contains v "fault" && contains v (string_of_int used_pe))
               violations)

(* ---------- simulator refusal ---------- *)

let test_sim_refuses_faulted_execution () =
  let k = Kernels.fir4 () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 ~max_ii:8 () in
  match Ocgra_mappers.Constructive.map p (Rng.create 3) with
  | None, _, _ -> Alcotest.fail "fir4 should map on the healthy array"
  | Some m, _, _ -> (
      let used_pe, _ = m.Mapping.binding.(0) in
      let faulted = Cgra.with_faults cgra44 [ Fault.Pe_down used_pe ] in
      let p' = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:faulted ~max_ii:8 () in
      let io = Ocgra_sim.Machine.io_of_streams ~memory:k.memory (k.inputs 4) in
      match Ocgra_sim.Machine.run p' m io ~iters:4 with
      | exception Ocgra_sim.Machine.Simulation_error e ->
          checkb "refusal names the fault" true (contains e.message "fault")
      | _ -> Alcotest.fail "simulator must refuse faulted-resource execution");
  (* and the same mapping still runs on the healthy array *)
  let io = Ocgra_sim.Machine.io_of_streams ~memory:k.memory (k.inputs 4) in
  match Ocgra_mappers.Constructive.map p (Rng.create 3) with
  | Some m, _, _ -> ignore (Ocgra_sim.Machine.run p m io ~iters:4)
  | None, _, _ -> ()

(* ---------- Mapper.run: clocks and guards ---------- *)

let test_elapsed_is_wall_clock () =
  (* a technique lying about its elapsed time is overruled by the
     harness's own clock *)
  let liar =
    Mapper.make ~name:"liar" ~citation:"-" ~scope:Taxonomy.Temporal_mapping
      ~approach:Taxonomy.Heuristic (fun _p _rng _dl _obs ->
        {
          Mapper.mapping = None;
          proven_optimal = false;
          attempts = 1;
          elapsed_s = 999.0;
          note = "";
          trail = [];
        })
  in
  let k = Kernels.dot_product () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 () in
  let o = Mapper.run liar p in
  checkb "own clock" true (o.Mapper.elapsed_s < 100.0)

let test_unmappable_fails_cleanly () =
  (* every cell down: no capable PE for any op — a clean failure, not
     an exception *)
  let all_down = List.init 16 (fun pe -> Fault.Pe_down pe) in
  let dead = Cgra.with_faults cgra44 all_down in
  let k = Kernels.dot_product () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:dead () in
  let o = Mapper.run (Ocgra_mappers.Registry.find "modulo-greedy") p in
  checkb "no mapping" true (o.Mapper.mapping = None);
  checkb "note says unmappable" true (contains o.Mapper.note "unmappable")

(* ---------- the fallback harness ---------- *)

let failing_tier =
  Mapper.make ~name:"never" ~citation:"-" ~scope:Taxonomy.Temporal_mapping
    ~approach:Taxonomy.Heuristic (fun _p _rng _dl _obs ->
      Mapper.outcome ~attempts:1 ~note:"nope" None)

let test_harness_falls_back () =
  let k = Kernels.dot_product () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 () in
  let chain = [ failing_tier; Ocgra_mappers.Registry.find "modulo-greedy" ] in
  let o = Mapper.Harness.run ~seed:7 ~deadline_s:10.0 chain p in
  checkb "fell through to tier 2" true (o.Mapper.mapping <> None);
  checkb "note names the answering tier" true (contains o.Mapper.note "tier 2/2");
  checkb "note carries the failure trail" true (contains o.Mapper.note "never")

let test_harness_total_failure () =
  let k = Kernels.dot_product () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 () in
  let o = Mapper.Harness.run ~seed:7 ~deadline_s:5.0 [ failing_tier; failing_tier ] p in
  checkb "no mapping" true (o.Mapper.mapping = None);
  checkb "failure trail present" true (contains o.Mapper.note "no tier answered")

let test_harness_empty_chain () =
  let k = Kernels.dot_product () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 () in
  Alcotest.check_raises "empty chain"
    (Invalid_argument "Mapper.Harness.run: empty fallback chain") (fun () ->
      ignore (Mapper.Harness.run [] p))

(* An already-expired budget still grants each tier its first try (with
   the 0.05s floor) but suppresses retries — the harness must answer,
   not spin. *)
let test_harness_expired_budget () =
  let k = Kernels.dot_product () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 () in
  let chain = [ failing_tier; Ocgra_mappers.Registry.find "modulo-greedy" ] in
  let o = Mapper.Harness.run ~seed:7 ~deadline_s:0.0 chain p in
  checkb "still answers on an expired budget" true (o.Mapper.mapping <> None);
  checkb "answering tier named" true (contains o.Mapper.note "tier 2/2");
  checkb "tier 1 got its first try" true (contains o.Mapper.note "never[try 1]");
  checkb "but no retries" false (contains o.Mapper.note "never[try 2]")

(* Total failure must leave a complete trail: every tier, every try,
   each failure's own note, and the attempt count summed across all. *)
let test_harness_failure_trail () =
  let k = Kernels.dot_product () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 () in
  let o = Mapper.Harness.run ~seed:7 [ failing_tier; failing_tier ] p in
  checkb "no mapping" true (o.Mapper.mapping = None);
  checkb "headline" true (contains o.Mapper.note "no tier answered");
  checkb "try 1 recorded with verdict" true (contains o.Mapper.note "never[try 1]: failed");
  checkb "try 2 recorded with verdict" true (contains o.Mapper.note "never[try 2]: failed");
  checkb "tier's own note carried" true (contains o.Mapper.note "— nope");
  checki "attempts summed over tiers and tries" 4 o.Mapper.attempts

(* Retries must not replay the same search: each try re-seeds the
   technique differently, yet the whole sequence is a deterministic
   function of the harness seed. *)
let test_harness_retry_seeds () =
  let k = Kernels.dot_product () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 () in
  let record () =
    let draws = ref [] in
    let spy =
      Mapper.make ~name:"spy" ~citation:"-" ~scope:Taxonomy.Temporal_mapping
        ~approach:Taxonomy.Heuristic (fun _p rng _dl _obs ->
          draws := Rng.bits rng :: !draws;
          Mapper.outcome ~attempts:1 None)
    in
    let o = Mapper.Harness.run ~seed:5 ~retries:2 [ spy ] p in
    checkb "no mapping" true (o.Mapper.mapping = None);
    List.rev !draws
  in
  let a = record () in
  let b = record () in
  checki "three tries, three rng states" 3 (List.length a);
  checkb "every retry drew from a fresh seed" true
    (List.sort_uniq compare a = List.sort compare a);
  checkb "identical across same-seed runs" true (a = b)

(* [retries] counts extra tries after the first in the harness exactly
   as in [Supervise]: k retries are k + 1 tries of a failing tier, the
   default is [Supervise.default_retries], and a negative count
   is refused. *)
let test_harness_retry_count () =
  let k = Kernels.dot_product () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 () in
  let harness_tries ?retries () =
    let tries = ref 0 in
    let counting =
      Mapper.make ~name:"counting" ~citation:"-" ~scope:Taxonomy.Temporal_mapping
        ~approach:Taxonomy.Heuristic (fun _p _rng _dl _obs ->
          incr tries;
          Mapper.outcome ~attempts:1 None)
    in
    ignore (Mapper.Harness.run ~seed:3 ?retries [ counting ] p);
    !tries
  in
  let supervise_tries retries =
    let s = Ocgra_par.Supervise.run ~workers:1 ~retries [| (fun () -> failwith "always") |] in
    s.Ocgra_par.Supervise.tries.(0)
  in
  List.iter
    (fun r ->
      let label = Printf.sprintf "retries:%d" r in
      checki (label ^ " is retries + 1 tries") (r + 1) (harness_tries ~retries:r ());
      checki (label ^ " counts like Supervise") (supervise_tries r) (harness_tries ~retries:r ()))
    [ 0; 1; 2; 3 ];
  checki "default is Supervise's default"
    (1 + Ocgra_par.Supervise.default_retries)
    (harness_tries ());
  Alcotest.check_raises "negative retries"
    (Invalid_argument "Mapper.Harness.run: negative retry count") (fun () ->
      ignore (harness_tries ~retries:(-1) ()))

let test_chain_of_spec () =
  let chain = Ocgra_mappers.Registry.chain_of_spec "sat, modulo-greedy,constructive" in
  Alcotest.(check (list string))
    "parsed in order"
    [ "sat"; "modulo-greedy"; "constructive" ]
    (List.map (fun (m : Mapper.t) -> m.Mapper.name) chain);
  Alcotest.check_raises "empty chain refused"
    (Invalid_argument "Registry.chain_of_spec: no mapper in \" , \"") (fun () ->
      ignore (Ocgra_mappers.Registry.chain_of_spec " , "))

(* ---------- registry-wide sweep ---------- *)

(* Every registered mapper, two small kernels, healthy and one-fault
   arrays, under a deadline: successes must validate (checked directly,
   not just via Mapper.run's demotion), and nothing may raise. *)
let test_registry_sweep_with_faults () =
  let kernels = [ Kernels.dot_product (); Kernels.find "horner" ] in
  let arrays = [ ("healthy", []); ("degraded", [ Fault.Pe_down 5 ]) ] in
  List.iter
    (fun (mapper : Mapper.t) ->
      List.iter
        (fun (k : Kernels.t) ->
          List.iter
            (fun (tag, faults) ->
              let base = if mapper.scope = Taxonomy.Spatial_mapping then cgra_diag else cgra44 in
              let cgra = Cgra.with_faults base faults in
              let p =
                if mapper.scope = Taxonomy.Spatial_mapping then
                  Problem.spatial ~init:k.init ~dfg:k.dfg ~cgra ()
                else Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra ~max_ii:12 ()
              in
              let o = Mapper.run mapper ~seed:7 ~deadline_s:5.0 p in
              match o.Mapper.mapping with
              | None -> () (* failing (or timing out) is allowed; lying is not *)
              | Some m ->
                  Alcotest.(check (list string))
                    (Printf.sprintf "%s on %s (%s) is valid" mapper.name k.name tag)
                    [] (Check.validate p m))
            arrays)
        kernels)
    (Ocgra_mappers.Registry.all @ Ocgra_mappers.Registry.extras)

let () =
  Alcotest.run "fault"
    [
      ( "model",
        [
          Alcotest.test_case "fault semantics" `Quick test_fault_model;
          Alcotest.test_case "dedup" `Quick test_fault_dedup;
          Alcotest.test_case "seeded injection" `Quick test_injection_deterministic;
        ] );
      ( "enforcement",
        [
          QCheck_alcotest.to_alcotest qcheck_fault_on_used_resource_rejects;
          Alcotest.test_case "simulator refuses" `Quick test_sim_refuses_faulted_execution;
        ] );
      ( "harness",
        [
          Alcotest.test_case "elapsed is wall clock" `Quick test_elapsed_is_wall_clock;
          Alcotest.test_case "unmappable fails cleanly" `Quick test_unmappable_fails_cleanly;
          Alcotest.test_case "falls back" `Quick test_harness_falls_back;
          Alcotest.test_case "total failure" `Quick test_harness_total_failure;
          Alcotest.test_case "empty chain" `Quick test_harness_empty_chain;
          Alcotest.test_case "expired budget" `Quick test_harness_expired_budget;
          Alcotest.test_case "failure trail" `Quick test_harness_failure_trail;
          Alcotest.test_case "retry seeds" `Quick test_harness_retry_seeds;
          Alcotest.test_case "retry count" `Quick test_harness_retry_count;
          Alcotest.test_case "chain parsing" `Quick test_chain_of_spec;
        ] );
      ( "sweep",
        [ Alcotest.test_case "registry sweep with faults" `Slow test_registry_sweep_with_faults ] );
    ]
