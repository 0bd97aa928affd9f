(* Extension features: PathFinder-style negotiated routing, the affine
   loop-nest transformer, and the negotiated fallback in Finalize. *)

open Ocgra_core
module Nest = Ocgra_cf.Nest
module Kernels = Ocgra_workloads.Kernels
module Rng = Ocgra_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let cgra44 = Ocgra_arch.Cgra.uniform ~rows:4 ~cols:4 ()

(* negotiate a whole legal binding against its own ledger *)
let route_all p ~ii binding ~max_iters =
  match Occupancy.of_binding p ~ii binding with
  | Some occ -> Pathfinder.route_all p occ binding ~max_iters
  | None -> Alcotest.fail "binding should be legal"

(* ---------- pathfinder ---------- *)

let test_pathfinder_routes_valid_binding () =
  (* take a heuristic mapping's binding, discard its routes, and ask
     the negotiated router to recover a valid full mapping *)
  List.iter
    (fun (k : Kernels.t) ->
      let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 ~max_ii:16 () in
      match Ocgra_mappers.Constructive.map p (Rng.create 11) with
      | None, _, _ -> Alcotest.fail ("cannot map " ^ k.name)
      | Some m, _, _ -> (
          match route_all p ~ii:m.Mapping.ii m.Mapping.binding ~max_iters:12 with
          | None -> Alcotest.fail (k.name ^ ": pathfinder failed on a routable binding")
          | Some m' ->
              Alcotest.(check (list string)) (k.name ^ " negotiated valid") []
                (Check.validate p m')))
    [ Kernels.dot_product (); Kernels.fir4 (); Kernels.find "cmac" ]

let test_pathfinder_rejects_impossible () =
  (* two dependent ops on disconnected... no disconnected topologies
     here; instead: consumer scheduled before its producer *)
  let k = Kernels.saxpy () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 ~max_ii:4 () in
  let n = Ocgra_dfg.Dfg.node_count k.dfg in
  (* all ops at cycle 0 on distinct PEs: every dependence would need to
     arrive before it is produced *)
  let binding = Array.init n (fun v -> (v, 0)) in
  checkb "impossible binding rejected" true
    (route_all p ~ii:4 binding ~max_iters:8 = None)

let test_finalize_negotiated_fallback () =
  (* the fallback path in Finalize accepts bindings that strict
     sequential routing also accepts, and never produces invalid maps *)
  let k = Kernels.find "matvec2" in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 ~max_ii:8 () in
  match Ocgra_mappers.Constructive.map p (Rng.create 3) with
  | None, _, _ -> Alcotest.fail "matvec2 maps"
  | Some m, _, _ -> (
      match Ocgra_mappers.Finalize.of_binding p ~ii:m.Mapping.ii m.Mapping.binding with
      | None -> Alcotest.fail "finalize on a known-good binding"
      | Some m' -> Alcotest.(check (list string)) "valid" [] (Check.validate p m'))

let test_finalize_rejects_illegal_binding () =
  let k = Kernels.saxpy () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 ~max_ii:4 () in
  let n = Ocgra_dfg.Dfg.node_count k.dfg in
  (* everyone stacked on the same (pe, slot) *)
  let binding = Array.init n (fun _ -> (0, 0)) in
  checkb "illegal binding" true (Ocgra_mappers.Finalize.of_binding p ~ii:2 binding = None)

(* a binding on a dead FU slot is refused by its ledger before any
   negotiation round: no pathfinder.iterations *)
let test_finalize_refuses_dead_slot () =
  let k = Kernels.find "matvec2" in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 ~max_ii:8 () in
  match Ocgra_mappers.Constructive.map p (Rng.create 3) with
  | None, _, _ -> Alcotest.fail "matvec2 maps"
  | Some m, _, _ ->
      let ii = m.Mapping.ii in
      let pe, time = m.Mapping.binding.(0) in
      let cgra = Ocgra_arch.Cgra.with_faults cgra44 [ Ocgra_arch.Fault.Fu_slot_dead (pe, time mod ii) ] in
      let p = { p with Problem.cgra } in
      let obs = Ocgra_obs.Ctx.create () in
      checkb "refused" true (Ocgra_mappers.Finalize.of_binding ~obs p ~ii m.Mapping.binding = None);
      checki "no negotiation" 0
        (Ocgra_obs.Metrics.get (Ocgra_obs.Ctx.metrics obs) "pathfinder.iterations")

(* pathfinder-recovered mappings also execute correctly *)
let test_pathfinder_simulates_correctly () =
  let k = Kernels.fir4 () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 ~max_ii:16 () in
  match Ocgra_mappers.Constructive.map p (Rng.create 11) with
  | None, _, _ -> Alcotest.fail "fir4 maps"
  | Some m, _, _ -> (
      match route_all p ~ii:m.Mapping.ii m.Mapping.binding ~max_iters:12 with
      | None -> Alcotest.fail "pathfinder"
      | Some m' ->
          let iters = 9 in
          let io = Ocgra_sim.Machine.io_of_streams ~memory:k.memory (k.inputs iters) in
          let result = Ocgra_sim.Machine.run p m' io ~iters in
          let reference = Kernels.eval_reference k ~iters in
          Alcotest.(check (list int)) "negotiated routes compute the same stream"
            (Ocgra_dfg.Eval.output_stream reference "y")
            (Ocgra_sim.Machine.output_stream result "y"))

(* ---------- affine nest transformation ---------- *)

let test_nest_wavefront () =
  (* classic stencil deps {(1,0),(0,1)}: the (0,1) recurrence pins the
     inner II at the latency no matter the transformation *)
  let deps = [ { Nest.d_outer = 1; d_inner = 0; latency = 2 }; { Nest.d_outer = 0; d_inner = 1; latency = 2 } ] in
  match Nest.best deps with
  | Some (mii, _) -> checki "pinned by (0,1)" 2 mii
  | None -> Alcotest.fail "legal transforms exist"

let test_nest_skew_unlocks_pipelining () =
  (* dep (1,-1) with latency 3: legal as-is but the inner loop cannot
     be pipelined after interchange; skewing by 1 turns it into (1,0),
     freeing the inner loop entirely (II bound 1) *)
  let deps = [ { Nest.d_outer = 1; d_inner = -1; latency = 3 } ] in
  (* identity already leaves the inner loop free (outer-carried) *)
  checki "identity bound" 1 (Nest.inner_rec_mii Nest.Identity deps);
  (* interchange would give (-1,1): illegal *)
  checkb "interchange illegal" false (Nest.legal Nest.Interchange deps);
  match Nest.best deps with
  | Some (mii, _) -> checki "best bound" 1 mii
  | None -> Alcotest.fail "feasible"

let test_nest_interchange_wins () =
  (* dep (0,2) lat 4: inner bound ceil(4/2)=2; interchanged it becomes
     (2,0): outer-carried, bound 1 *)
  let deps = [ { Nest.d_outer = 0; d_inner = 2; latency = 4 } ] in
  checki "identity" 2 (Nest.inner_rec_mii Nest.Identity deps);
  checkb "interchange legal" true (Nest.legal Nest.Interchange deps);
  match Nest.best deps with
  | Some (mii, t) ->
      checki "after transform" 1 mii;
      checkb "transform moves the dep outward" true (Nest.inner_rec_mii t deps = 1)
  | None -> Alcotest.fail "feasible"

let test_nest_legality () =
  (* (0,-1) is lexicographically negative: nothing legal can keep it *)
  let deps = [ { Nest.d_outer = 0; d_inner = -1; latency = 1 } ] in
  checkb "identity illegal" false (Nest.legal Nest.Identity deps);
  (* (1, anything) stays legal under skew *)
  let deps2 = [ { Nest.d_outer = 1; d_inner = -5; latency = 1 } ] in
  checkb "skew keeps legality" true (Nest.legal (Nest.Skew 3) deps2)

let test_nest_report_shape () =
  let deps = [ { Nest.d_outer = 1; d_inner = 1; latency = 2 } ] in
  let report = Nest.report deps in
  (* identity, interchange, and skew / interchange-skew by -3..3 but 0 *)
  checki "all candidates" 14 (List.length report);
  checkb "identity present and legal" true
    (List.exists (fun (t, ok, _) -> t = Nest.Identity && ok) report)

(* ---------- new kernels through the whole stack ---------- *)

let test_new_kernels_end_to_end () =
  List.iter
    (fun name ->
      let k = Kernels.find name in
      let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 ~max_ii:16 () in
      match Ocgra_mappers.Constructive.map p (Rng.create 8) with
      | None, _, _ -> Alcotest.fail (name ^ " should map")
      | Some m, _, _ ->
          let iters = 9 in
          let io = Ocgra_sim.Machine.io_of_streams ~memory:k.memory (k.inputs iters) in
          let result = Ocgra_sim.Machine.run p m io ~iters in
          let reference = Kernels.eval_reference k ~iters in
          List.iter
            (fun o ->
              Alcotest.(check (list int))
                (name ^ " output " ^ o)
                (Ocgra_dfg.Eval.output_stream reference o)
                (Ocgra_sim.Machine.output_stream result o))
            k.outputs)
    [ "cmac"; "moving-avg3"; "alpha-blend"; "conv3-store" ]

let () =
  Alcotest.run "extensions"
    [
      ( "pathfinder",
        [
          Alcotest.test_case "routes valid bindings" `Quick test_pathfinder_routes_valid_binding;
          Alcotest.test_case "rejects impossible" `Quick test_pathfinder_rejects_impossible;
          Alcotest.test_case "finalize fallback" `Quick test_finalize_negotiated_fallback;
          Alcotest.test_case "finalize legality gate" `Quick test_finalize_rejects_illegal_binding;
          Alcotest.test_case "finalize refuses dead slots" `Quick test_finalize_refuses_dead_slot;
          Alcotest.test_case "negotiated routes simulate" `Quick test_pathfinder_simulates_correctly;
        ] );
      ( "affine nest",
        [
          Alcotest.test_case "wavefront" `Quick test_nest_wavefront;
          Alcotest.test_case "skew unlocks" `Quick test_nest_skew_unlocks_pipelining;
          Alcotest.test_case "interchange wins" `Quick test_nest_interchange_wins;
          Alcotest.test_case "legality" `Quick test_nest_legality;
          Alcotest.test_case "report" `Quick test_nest_report_shape;
        ] );
      ( "new kernels",
        [ Alcotest.test_case "end to end" `Quick test_new_kernels_end_to_end ] );
    ]
