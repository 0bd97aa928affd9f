(* Parallel execution layer tests: the domain pool (ordering, load
   balancing, exception policy), the composable stop signal
   (Deadline + Cancel), portfolio racing through Mapper.Harness.race
   (validated winners, loser trails, cancellation that actually stops
   a slow tier) and the determinism-under-parallelism guarantee of the
   reliability campaign: one fixed seed, byte-identical report for any
   worker count. *)

open Ocgra_core
module Par = Ocgra_par
module Kernels = Ocgra_workloads.Kernels
module Machine = Ocgra_sim.Machine
module Reliability = Ocgra_sim.Reliability
module Eval = Ocgra_dfg.Eval

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let cgra33 = Ocgra_arch.Cgra.uniform ~rows:3 ~cols:3 ()
let cgra44 = Ocgra_arch.Cgra.uniform ~rows:4 ~cols:4 ()

(* ---------- pool ---------- *)

let test_pool_order_and_parity () =
  let tasks n = Array.init n (fun i () -> (i * i) + 1) in
  let expect n = Array.init n (fun i -> (i * i) + 1) in
  List.iter
    (fun workers ->
      checkb
        (Printf.sprintf "results in task order with %d workers" workers)
        true
        (Par.Pool.run ~workers (tasks 37) = expect 37))
    [ 1; 2; 4; 13 ];
  checkb "default workers" true (Par.Pool.run (tasks 5) = expect 5);
  checkb "empty task array" true (Par.Pool.run ~workers:4 [||] = [||]);
  checki "at least one worker" 1 (max 1 (Par.Pool.default_workers ()) |> min 1)

let test_pool_uneven_tasks () =
  (* uneven work must still land at the right indices *)
  let tasks =
    Array.init 16 (fun i () ->
        let spin = if i mod 4 = 0 then 20_000 else 10 in
        let acc = ref i in
        for _ = 1 to spin do
          acc := (!acc * 7) mod 1009
        done;
        (i, !acc))
  in
  let seq = Par.Pool.run ~workers:1 tasks in
  let par = Par.Pool.run ~workers:4 tasks in
  checkb "parallel equals sequential" true (seq = par);
  Array.iteri (fun i (j, _) -> checki "index" i j) par

let test_pool_exception_policy () =
  Alcotest.check_raises "lowest-index failure re-raised" (Failure "task 3") (fun () ->
      ignore
        (Par.Pool.run ~workers:4
           (Array.init 8 (fun i () -> if i >= 3 then failwith (Printf.sprintf "task %d" i)))))

(* ---------- stop-signal composition ---------- *)

let test_cancel_flag () =
  let c = Par.Cancel.create () in
  checkb "fresh flag unset" false (Par.Cancel.hook c ());
  let dl = Deadline.with_cancel Deadline.none (Par.Cancel.hook c) in
  checkb "uncancelled, no expiry" false (Deadline.expired dl);
  Par.Cancel.set c;
  Par.Cancel.set c;
  checkb "set is idempotent" true (Par.Cancel.hook c ());
  checkb "cancellation expires the deadline" true (Deadline.expired dl);
  checkb "cancelled is observable on its own" true (Deadline.cancelled dl);
  checkb "clock-only view unaffected" true (Deadline.remaining_s dl = None)

let test_deadline_sooner () =
  let c = Par.Cancel.create () in
  let a = Deadline.after ~seconds:1000.0 in
  let b = Deadline.with_cancel Deadline.none (Par.Cancel.hook c) in
  let s = Deadline.sooner a b in
  checkb "neither fired yet" false (Deadline.expired s);
  (match Deadline.remaining_s s with
  | Some r -> checkb "keeps the finite expiry" true (r > 0.0)
  | None -> Alcotest.fail "sooner lost the clock");
  Par.Cancel.set c;
  checkb "either side cancels" true (Deadline.expired s);
  let tight = Deadline.sooner (Deadline.after ~seconds:1000.0) (Deadline.after ~seconds:(-1.0)) in
  checkb "min of two expiries" true (Deadline.expired tight)

(* The composition edge cases the supervision layer leans on: expired
   inputs, double-cancel hooks, clamping — each must survive [sooner]
   without resurrecting a dead deadline or losing a live hook. *)
let test_deadline_sooner_edge_cases () =
  (* both sides already expired: still expired, remaining clamps to 0 *)
  let dead = Deadline.sooner (Deadline.after ~seconds:(-5.0)) (Deadline.after ~seconds:(-1.0)) in
  checkb "both expired stays expired" true (Deadline.expired dead);
  (match Deadline.remaining_s dead with
  | Some r -> checkb "remaining clamped at zero" true (r = 0.0)
  | None -> Alcotest.fail "sooner of two finite deadlines lost the clock");
  (* one side expired at composition time: the result is born expired *)
  let born_dead = Deadline.sooner Deadline.none (Deadline.after ~seconds:(-1.0)) in
  checkb "expired side dominates none" true (Deadline.expired born_dead);
  checkb "an expired component is not a cancellation" false (Deadline.cancelled born_dead);
  (* none/none: never expires, no clock to report *)
  let never = Deadline.sooner Deadline.none Deadline.none in
  checkb "none of none" false (Deadline.expired never);
  checkb "no clock view" true (Deadline.remaining_s never = None);
  (* hooks on both sides OR together across the composition *)
  let ca = Par.Cancel.create () and cb = Par.Cancel.create () in
  let s =
    Deadline.sooner
      (Deadline.with_cancel (Deadline.after ~seconds:1000.0) (Par.Cancel.hook ca))
      (Deadline.with_cancel Deadline.none (Par.Cancel.hook cb))
  in
  checkb "neither hook fired" false (Deadline.expired s);
  Par.Cancel.set cb;
  checkb "second side's hook cancels the composite" true (Deadline.cancelled s);
  Par.Cancel.set ca;
  checkb "both set stays cancelled" true (Deadline.cancelled s);
  (* stacking with_cancel twice ORs, never replaces *)
  let c1 = Par.Cancel.create () and c2 = Par.Cancel.create () in
  let stacked =
    Deadline.with_cancel (Deadline.with_cancel Deadline.none (Par.Cancel.hook c1))
      (Par.Cancel.hook c2)
  in
  Par.Cancel.set c1;
  checkb "inner hook survives the outer attach" true (Deadline.cancelled stacked);
  (* should_stop observes composed cancellation like expiry *)
  let c3 = Par.Cancel.create () in
  let polled =
    Deadline.sooner (Deadline.after ~seconds:1000.0)
      (Deadline.with_cancel Deadline.none (Par.Cancel.hook c3))
  in
  let stop = Deadline.should_stop polled in
  checkb "hook not fired: polling says go" false (stop ());
  Par.Cancel.set c3;
  checkb "polling sees the composed cancel" true (stop ())

(* ---------- racing mappers ---------- *)

let greedy () = Ocgra_mappers.Registry.find "modulo-greedy"

let problem_of kernel =
  let k = Kernels.find kernel in
  (k, Problem.temporal ~init:k.Kernels.init ~dfg:k.Kernels.dfg ~cgra:cgra44 ())

(* A tier that spins (politely polling its stop signal) for far longer
   than any test budget: only cancellation or expiry can end it. *)
let slow_tier =
  Mapper.make ~name:"slow-spin" ~citation:"test" ~scope:Taxonomy.Temporal_mapping
    ~approach:Taxonomy.Heuristic (fun _p _rng dl _obs ->
      let stop = Deadline.should_stop dl in
      let t0 = Deadline.now () in
      while (not (stop ())) && Deadline.now () -. t0 < 60.0 do
        Domain.cpu_relax ()
      done;
      Mapper.outcome ~attempts:1 None
        ~note:(if stop () then "stopped by the stop signal" else "spun to the cap"))

(* A tier that instantly claims success with a corrupted mapping: two
   ops forced onto the same (PE, cycle).  [Mapper.run] must demote it,
   so a race can never be won by an invalid mapping. *)
let bogus_tier =
  Mapper.make ~name:"bogus-fast" ~citation:"test" ~scope:Taxonomy.Temporal_mapping
    ~approach:Taxonomy.Heuristic (fun p rng _dl _obs ->
      match Ocgra_mappers.Constructive.map p rng with
      | Some m, attempts, _ ->
          let binding = Array.copy m.Mapping.binding in
          binding.(0) <- binding.(1);
          Mapper.outcome ~attempts (Some { m with Mapping.binding })
      | None, attempts, _ -> Mapper.outcome ~attempts None)

let failing_tier name =
  Mapper.make ~name ~citation:"test" ~scope:Taxonomy.Temporal_mapping
    ~approach:Taxonomy.Heuristic (fun _p _rng _dl _obs ->
      Mapper.outcome ~attempts:1 ~note:"synthetic failure" None)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let test_race_returns_validated_winner () =
  let _, p = problem_of "dot-product" in
  let o = Mapper.Harness.race ~workers:2 ~deadline_s:30.0 [ bogus_tier; greedy () ] p in
  (match o.Mapper.mapping with
  | None -> Alcotest.fail ("race failed: " ^ o.Mapper.note)
  | Some m -> Alcotest.(check (list string)) "winner validates" [] (Check.validate p m));
  checkb "note names the winner" true (contains o.Mapper.note "race won by");
  checkb "note names the winning tier" true (contains o.Mapper.note "modulo-greedy");
  checkb "loser trail carries the demotion" true (contains o.Mapper.note "INVALID")

let test_race_cancels_slow_tier () =
  let _, p = problem_of "fir4" in
  let t0 = Deadline.now () in
  let o = Mapper.Harness.race ~workers:2 ~deadline_s:30.0 [ slow_tier; greedy () ] p in
  let dt = Deadline.now () -. t0 in
  checkb ("race answered: " ^ o.Mapper.note) true (o.Mapper.mapping <> None);
  (* the slow tier spins for 60 s unless cancelled: answering well
     under that (and under the 30 s budget) proves the winner's flag
     reached the loser through its should_stop polling *)
  checkb (Printf.sprintf "cancelled within the budget (%.2fs)" dt) true (dt < 20.0);
  checkb "loser trail shows the stop" true (contains o.Mapper.note "stopped by the stop signal")

let test_race_no_winner_carries_trail () =
  let _, p = problem_of "dot-product" in
  let o =
    Mapper.Harness.race ~workers:2 ~deadline_s:10.0
      [ failing_tier "fail-a"; failing_tier "fail-b" ]
      p
  in
  checkb "no mapping" true (o.Mapper.mapping = None);
  checkb "trail names both tiers" true
    (contains o.Mapper.note "fail-a" && contains o.Mapper.note "fail-b");
  checkb "trail carries the notes" true (contains o.Mapper.note "synthetic failure")

let test_race_degrades_to_sequential () =
  let _, p = problem_of "dot-product" in
  let o = Mapper.Harness.race ~workers:1 [ failing_tier "fail-a"; greedy () ] p in
  checkb "sequential fallback answers" true (o.Mapper.mapping <> None);
  checkb "sequential note shape" true (contains o.Mapper.note "answered by tier");
  let o1 = Mapper.Harness.race ~workers:4 [ greedy () ] p in
  checkb "single-tier race answers" true (o1.Mapper.mapping <> None);
  Alcotest.check_raises "empty chain rejected"
    (Invalid_argument "Mapper.Harness.race: empty fallback chain") (fun () ->
      ignore (Mapper.Harness.race ~workers:2 [] p))

(* race vs sequential chain latency on the small suite: with >= 2
   domains the race must not answer later than the sequential chain
   (monotonic clock, generous tolerance for 1-core CI time-slicing). *)
let test_race_not_slower_than_chain () =
  let chain = [ slow_tier; greedy () ] in
  let kernels = [ "dot-product"; "saxpy"; "fir4" ] in
  let budget = 6.0 in
  List.iter
    (fun kernel ->
      let _, p = problem_of kernel in
      let t0 = Deadline.now () in
      let seq = Mapper.Harness.run ~retries:0 ~deadline_s:budget chain p in
      let seq_dt = Deadline.now () -. t0 in
      let t1 = Deadline.now () in
      let raced = Mapper.Harness.race ~workers:2 ~deadline_s:budget chain p in
      let raced_dt = Deadline.now () -. t1 in
      checkb (kernel ^ ": both answer") true
        (seq.Mapper.mapping <> None && raced.Mapper.mapping <> None);
      (* the sequential chain burns the slow tier's whole budget share
         first; the race pays only the fast tier plus cancellation *)
      checkb
        (Printf.sprintf "%s: race (%.2fs) <= chain (%.2fs) + slack" kernel raced_dt seq_dt)
        true
        (raced_dt <= seq_dt +. 1.0))
    kernels

(* ---------- parallel reliability campaigns ---------- *)

let campaign_setup kernel =
  let k = Kernels.find kernel in
  let p = Problem.temporal ~init:k.Kernels.init ~dfg:k.Kernels.dfg ~cgra:cgra33 () in
  let o = Mapper.run (greedy ()) ~seed:42 p in
  let m =
    match o.Mapper.mapping with
    | Some m -> m
    | None -> Alcotest.fail ("mapping failed: " ^ o.Mapper.note)
  in
  let iters = 6 in
  let mk_io () = Machine.io_of_streams ~memory:k.Kernels.memory (k.Kernels.inputs iters) in
  let reference = Kernels.eval_reference k ~iters in
  let expected =
    List.map (fun n -> (n, Eval.output_stream reference n)) k.Kernels.outputs
  in
  (p, m, iters, mk_io, expected)

let test_campaign_worker_count_invariance () =
  List.iter
    (fun kernel ->
      let p, m, iters, mk_io, expected = campaign_setup kernel in
      let camp workers =
        Reliability.run_campaign ?workers p m ~mk_io ~iters ~expected ~trials:48 ~rate:0.004
          ~seed:11
      in
      let sequential = camp (Some 1) in
      checkb (kernel ^ ": campaign saw events") true (sequential.Reliability.injected > 0);
      List.iter
        (fun w ->
          checkb
            (Printf.sprintf "%s: workers=%d report identical to sequential" kernel w)
            true
            (camp (Some w) = sequential))
        [ 1; 2; 4 ];
      checkb (kernel ^ ": default workers identical too") true (camp None = sequential))
    [ "saxpy"; "absdiff" ]

let test_campaign_trial_count_tallies () =
  let p, m, iters, mk_io, expected = campaign_setup "saxpy" in
  let rep =
    Reliability.run_campaign ~workers:4 p m ~mk_io ~iters ~expected ~trials:30 ~rate:0.003
      ~seed:7
  in
  checki "every trial classified exactly once" 30
    (rep.Reliability.correct + rep.Reliability.masked + rep.Reliability.detected
    + rep.Reliability.sdc + rep.Reliability.crash)

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "order and parity" `Quick test_pool_order_and_parity;
          Alcotest.test_case "uneven tasks" `Quick test_pool_uneven_tasks;
          Alcotest.test_case "exception policy" `Quick test_pool_exception_policy;
        ] );
      ( "stop-signal",
        [
          Alcotest.test_case "cancel flag" `Quick test_cancel_flag;
          Alcotest.test_case "sooner" `Quick test_deadline_sooner;
          Alcotest.test_case "sooner edge cases" `Quick test_deadline_sooner_edge_cases;
        ] );
      ( "race",
        [
          Alcotest.test_case "validated winner" `Quick test_race_returns_validated_winner;
          Alcotest.test_case "cancels slow tier" `Quick test_race_cancels_slow_tier;
          Alcotest.test_case "no winner, full trail" `Quick test_race_no_winner_carries_trail;
          Alcotest.test_case "sequential degradation" `Quick test_race_degrades_to_sequential;
          Alcotest.test_case "not slower than the chain" `Slow test_race_not_slower_than_chain;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "worker-count invariance" `Slow test_campaign_worker_count_invariance;
          Alcotest.test_case "trial tallies" `Quick test_campaign_trial_count_tallies;
        ] );
    ]
