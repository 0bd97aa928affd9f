(* Supervised execution tests: per-task outcomes instead of
   raise-through, bounded retries that mask seeded injected chaos,
   quarantine of deterministically-poisonous tasks, and the crash-safe
   campaign checkpoint: journal, SIGKILL-shaped truncation,
   exactly-once-per-seed resume with a byte-identical report. *)

open Ocgra_core
module Par = Ocgra_par
module Supervise = Par.Supervise
module Chaos = Par.Chaos
module Journal = Par.Journal
module Kernels = Ocgra_workloads.Kernels
module Machine = Ocgra_sim.Machine
module Reliability = Ocgra_sim.Reliability
module Eval = Ocgra_dfg.Eval

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* The [Ok] payloads in task order: the degraded result set. *)
let ok_results (s : _ Supervise.summary) =
  Array.to_list s.outcomes
  |> List.filter_map (function Supervise.Ok v -> Some v | Supervise.Failed _ -> None)

let live_obs () =
  let metrics = Ocgra_obs.Metrics.create () in
  (Ocgra_obs.Ctx.v ~trace:Ocgra_obs.Trace.off ~metrics (), metrics)

let counter metrics name =
  match List.assoc_opt name (Ocgra_obs.Metrics.dump metrics) with Some v -> v | None -> 0

(* ---------- outcomes ---------- *)

let test_all_ok_parity () =
  let tasks = Array.init 24 (fun i () -> (i * i) + 1) in
  let s = Supervise.run ~workers:4 tasks in
  checki "no extra tries" 0 s.Supervise.retried;
  checkb "nothing quarantined" true (s.Supervise.quarantined = []);
  checkb "one try per task" true (Array.for_all (fun t -> t = 1) s.Supervise.tries);
  checkb "payloads in task order" true
    (ok_results s = Array.to_list (Array.init 24 (fun i -> (i * i) + 1)))

let test_poison_task_quarantined () =
  let tasks =
    Array.init 9 (fun i () -> if i = 5 then failwith "poison" else i * 10)
  in
  let obs, metrics = live_obs () in
  let s = Supervise.run ~workers:3 ~obs tasks in
  checkb "poison slot failed" true
    (match s.Supervise.outcomes.(5) with
    | Supervise.Failed (Failure msg) -> msg = "poison"
    | _ -> false);
  checkb "quarantine names exactly the poison task" true (s.Supervise.quarantined = [ 5 ]);
  checki "tries bounded by the retry count" (1 + Supervise.default_retries) s.Supervise.tries.(5);
  checki "everyone else answered" 8 (List.length (ok_results s));
  checkb "degraded results in order" true
    (ok_results s = [ 0; 10; 20; 30; 40; 60; 70; 80 ]);
  checki "quarantine counter" 1 (counter metrics "supervise.quarantined");
  checki "retry counter matches summary" s.Supervise.retried (counter metrics "supervise.retries")

let test_negative_retries_rejected () =
  Alcotest.check_raises "negative retry count"
    (Invalid_argument "Supervise.run: negative retry count") (fun () ->
      ignore (Supervise.run ~retries:(-1) [| (fun () -> ()) |]))

(* ---------- chaos masked by retries ---------- *)

let test_chaos_masked_by_retries () =
  let n = 48 in
  let tasks = Array.init n (fun i () -> i + 100) in
  let chaos = Chaos.make ~fail_rate:0.2 ~seed:2026 () in
  let run workers = Supervise.run ~workers ~retries:3 ~chaos tasks in
  let s = run 1 in
  checkb "chaos actually fired" true (s.Supervise.retried > 0);
  checkb "every injection was masked" true (s.Supervise.quarantined = []);
  checkb "all payloads intact" true
    (ok_results s = Array.to_list (Array.init n (fun i -> i + 100)));
  (* the fault pattern is keyed on (seed, task, try), so the whole
     summary is worker-count invariant *)
  List.iter
    (fun w ->
      let sw = run w in
      checkb
        (Printf.sprintf "workers=%d: identical outcomes" w)
        true
        (sw.Supervise.outcomes = s.Supervise.outcomes
        && sw.Supervise.tries = s.Supervise.tries
        && sw.Supervise.retried = s.Supervise.retried))
    [ 2; 4 ]

let test_chaos_determinism () =
  let mk () = Array.init 16 (fun i () -> i) in
  let chaos = Chaos.make ~fail_rate:0.5 ~seed:77 () in
  let a = Supervise.run ~workers:4 ~retries:1 ~chaos (mk ()) in
  let b = Supervise.run ~workers:4 ~retries:1 ~chaos (mk ()) in
  checkb "same seed, same summary" true
    (a.Supervise.outcomes = b.Supervise.outcomes
    && a.Supervise.tries = b.Supervise.tries
    && a.Supervise.quarantined = b.Supervise.quarantined)

(* ---------- campaign: chaos equivalence and checkpointing ---------- *)

let cgra33 = Ocgra_arch.Cgra.uniform ~rows:3 ~cols:3 ()

let campaign_setup kernel =
  let k = Kernels.find kernel in
  let p = Problem.temporal ~init:k.Kernels.init ~dfg:k.Kernels.dfg ~cgra:cgra33 () in
  let o = Mapper.run (Ocgra_mappers.Registry.find "modulo-greedy") ~seed:42 p in
  let m =
    match o.Mapper.mapping with
    | Some m -> m
    | None -> Alcotest.fail ("mapping failed: " ^ o.Mapper.note)
  in
  let iters = 6 in
  let mk_io () = Machine.io_of_streams ~memory:k.Kernels.memory (k.Kernels.inputs iters) in
  let reference = Kernels.eval_reference k ~iters in
  let expected = List.map (fun n -> (n, Eval.output_stream reference n)) k.Kernels.outputs in
  (p, m, iters, mk_io, expected)

let test_campaign_chaos_equals_chaos_free () =
  let p, m, iters, mk_io, expected = campaign_setup "saxpy" in
  let camp ?chaos () =
    Reliability.run_campaign ~workers:4 ~retries:3 ?chaos p m ~mk_io ~iters ~expected
      ~trials:40 ~rate:0.004 ~seed:11
  in
  let clean = camp () in
  let chaotic = camp ~chaos:(Chaos.make ~fail_rate:0.1 ~seed:5 ()) () in
  checkb "campaign saw real faults too" true (clean.Reliability.injected > 0);
  checki "nothing quarantined: every injection was masked" 0
    chaotic.Reliability.quarantined;
  checkb "chaotic report identical to chaos-free" true (chaotic = clean)

let with_temp_journal f =
  let path = Filename.temp_file "ocgra-journal" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_campaign_checkpoint_resume_identical () =
  let p, m, iters, mk_io, expected = campaign_setup "saxpy" in
  let camp ?checkpoint () =
    Reliability.run_campaign ~workers:2 ?checkpoint p m ~mk_io ~iters ~expected ~trials:24
      ~rate:0.004 ~seed:11
  in
  let straight = camp () in
  with_temp_journal (fun path ->
      let first = camp ~checkpoint:{ Reliability.path; resume = false } () in
      checkb "journaled run matches plain run" true (first = straight);
      checki "header + one line per trial" 25 (List.length (Journal.read_lines path));
      (* resume over the complete journal: nothing re-simulated *)
      let obs, metrics = live_obs () in
      let resumed =
        Reliability.run_campaign ~workers:2 ~obs
          ~checkpoint:{ Reliability.path; resume = true } p m ~mk_io ~iters ~expected
          ~trials:24 ~rate:0.004 ~seed:11
      in
      checkb "full replay is byte-identical" true (resumed = straight);
      checki "every trial replayed from the journal" 24 (counter metrics "campaign.resumed");
      checki "nothing re-journaled" 0 (counter metrics "checkpoint.journaled"))

let test_campaign_resume_after_torn_crash () =
  let p, m, iters, mk_io, expected = campaign_setup "absdiff" in
  let camp ?checkpoint () =
    Reliability.run_campaign ~workers:2 ?checkpoint p m ~mk_io ~iters ~expected ~trials:24
      ~rate:0.004 ~seed:13
  in
  let straight = camp () in
  with_temp_journal (fun path ->
      ignore (camp ~checkpoint:{ Reliability.path; resume = false } ());
      (* SIGKILL shape: keep the header + 9 trials, tear the 10th *)
      let lines = Journal.read_lines path in
      let keep = List.filteri (fun i _ -> i < 10) lines in
      let oc = open_out path in
      List.iter (fun l -> output_string oc (l ^ "\n")) keep;
      output_string oc "{\"trial\": 99, \"se";
      close_out oc;
      let obs, metrics = live_obs () in
      let resumed =
        Reliability.run_campaign ~workers:2 ~obs
          ~checkpoint:{ Reliability.path; resume = true } p m ~mk_io ~iters ~expected
          ~trials:24 ~rate:0.004 ~seed:13
      in
      checkb "resume after crash reproduces the report" true (resumed = straight);
      checki "nine trials replayed, torn line dropped" 9 (counter metrics "campaign.resumed");
      checki "the other fifteen re-simulated and journaled" 15
        (counter metrics "checkpoint.journaled");
      checkb "journal is complete again" true (List.length (Journal.read_lines path) = 25))

let test_campaign_resume_with_62_bit_seeds () =
  (* per-trial seeds come from [Rng.bits] (62 bits): the journal must
     carry them exactly, or resume would reject its own journal as
     belonging to a different campaign *)
  let p, m, iters, mk_io, expected = campaign_setup "saxpy" in
  let camp ?checkpoint () =
    Reliability.run_campaign ~workers:2 ?checkpoint p m ~mk_io ~iters ~expected ~trials:12
      ~rate:0.004 ~seed:17
  in
  let straight = camp () in
  with_temp_journal (fun path ->
      ignore (camp ~checkpoint:{ Reliability.path; resume = false } ());
      let lines = Journal.read_lines path in
      let seed line =
        match Ocgra_obs.Json.parse line with
        | Ok j -> Option.bind (Ocgra_obs.Json.member "seed" j) Ocgra_obs.Json.to_string
        | Error _ -> None
      in
      checkb "the journal holds a seed >= 2^53" true
        (List.exists
           (fun l ->
             match Option.bind (seed l) int_of_string_opt with
             | Some s -> s >= 1 lsl 53
             | None -> false)
           lines);
      let oc = open_out path in
      List.iter (fun l -> output_string oc (l ^ "\n")) (List.filteri (fun i _ -> i < 7) lines);
      close_out oc;
      let obs, metrics = live_obs () in
      let resumed =
        Reliability.run_campaign ~workers:2 ~obs
          ~checkpoint:{ Reliability.path; resume = true } p m ~mk_io ~iters ~expected ~trials:12
          ~rate:0.004 ~seed:17
      in
      checki "six trials replayed from the journal" 6 (counter metrics "campaign.resumed");
      checkb "resumed report is identical" true (resumed = straight))

let test_campaign_resume_rejects_mismatched_header () =
  let p, m, iters, mk_io, expected = campaign_setup "saxpy" in
  with_temp_journal (fun path ->
      ignore
        (Reliability.run_campaign ~workers:2
           ~checkpoint:{ Reliability.path; resume = false } p m ~mk_io ~iters ~expected
           ~trials:8 ~rate:0.004 ~seed:11);
      checkb "different rate refuses the journal" true
        (try
           ignore
             (Reliability.run_campaign ~workers:2
                ~checkpoint:{ Reliability.path; resume = true } p m ~mk_io ~iters ~expected
                ~trials:8 ~rate:0.005 ~seed:11);
           false
         with Invalid_argument _ -> true))

let () =
  Alcotest.run "supervise"
    [
      ( "outcomes",
        [
          Alcotest.test_case "all-ok parity" `Quick test_all_ok_parity;
          Alcotest.test_case "poison quarantined" `Quick test_poison_task_quarantined;
          Alcotest.test_case "negative retries rejected" `Quick test_negative_retries_rejected;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "masked by retries" `Quick test_chaos_masked_by_retries;
          Alcotest.test_case "seeded determinism" `Quick test_chaos_determinism;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "chaos == chaos-free" `Slow test_campaign_chaos_equals_chaos_free;
          Alcotest.test_case "full-journal replay" `Quick test_campaign_checkpoint_resume_identical;
          Alcotest.test_case "resume after torn crash" `Quick test_campaign_resume_after_torn_crash;
          Alcotest.test_case "62-bit seeds resume exactly" `Quick
            test_campaign_resume_with_62_bit_seeds;
          Alcotest.test_case "mismatched header rejected" `Quick
            test_campaign_resume_rejects_mismatched_header;
        ] );
    ]
