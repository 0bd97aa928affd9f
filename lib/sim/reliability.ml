(* Monte-Carlo reliability campaign.

   One campaign = N independent seeded trials of the same mapping under
   the same transient-event rate.  Every trial draws its own
   bombardment (deterministically from the campaign seed), executes the
   mapping in the simulator's fault-injecting mode and is classified
   against the reference output streams:

   - [Correct]   the run completed and every output matched, with no
                 voter ever seeing a disagreement — the faults missed;
   - [Masked]    outputs matched but at least one TMR voter outvoted a
                 corrupted replica — the hardening earned its keep;
   - [Detected]  a DMR comparator (or the tag check, standing in for
                 the hardware's control checker) caught the corruption
                 before an output was produced;
   - [Sdc]       the run completed with a wrong output — silent data
                 corruption, the failure mode hardening exists to kill;
   - [Crash]     the machine stopped (RF miss, bad state, ...).

   The campaign is the reliability axis of the repo's mapper
   comparisons: hardened and unhardened mappings of any technique are
   judged under the same injected fault load, alongside the II and
   energy overhead the hardening costs. *)

open Ocgra_core
module Json = Ocgra_obs.Json

type trial_class = Correct | Masked | Detected | Sdc | Crash

let trial_class_to_string = function
  | Correct -> "correct"
  | Masked -> "masked"
  | Detected -> "detected"
  | Sdc -> "sdc"
  | Crash -> "crash"

let trial_class_of_string = function
  | "correct" -> Some Correct
  | "masked" -> Some Masked
  | "detected" -> Some Detected
  | "sdc" -> Some Sdc
  | "crash" -> Some Crash
  | _ -> None

type report = {
  trials : int;
  correct : int;
  masked : int;
  detected : int;
  sdc : int;
  crash : int;
  injected : int; (* events drawn across all trials *)
  applied : int; (* events that struck live state (completed trials) *)
  quarantined : int; (* trials whose task exhausted every supervised retry *)
}

let rate_of count r = if r.trials = 0 then 0.0 else float_of_int count /. float_of_int r.trials
let sdc_rate r = rate_of r.sdc r

(* The rendering is part of the crash-safe contract: a resumed
   campaign must print a byte-identical line, so the quarantine suffix
   only appears when it is nonzero (a healthy run reads exactly as it
   did before the supervision layer existed). *)
let to_string r =
  Printf.sprintf
    "%d trials: %d correct, %d masked, %d detected, %d SDC (%.1f%%), %d crash; %d events injected, %d applied%s"
    r.trials r.correct r.masked r.detected r.sdc
    (100.0 *. sdc_rate r)
    r.crash r.injected r.applied
    (if r.quarantined = 0 then ""
     else Printf.sprintf "; %d quarantined" r.quarantined)

(* Last cycle any instruction of the run can fire, so every drawn event
   lands inside the run's lifetime. *)
let horizon (m : Mapping.t) ~iters = Mapping.schedule_length m + ((iters - 1) * m.Mapping.ii) + 1

let classify (p : Problem.t) (m : Mapping.t) ~io ~iters ~expected ~transients =
  match Machine.run_transient p m io ~iters ~transients with
  | exception Machine.Fault_detected _ -> (Detected, None)
  | exception Machine.Simulation_error _ -> (Crash, None)
  | result, ts ->
      let ok =
        List.for_all
          (fun (name, want) -> Machine.output_stream result name = want)
          expected
      in
      if not ok then (Sdc, Some ts)
      else if ts.Machine.corrections > 0 then (Masked, Some ts)
      else (Correct, Some ts)

(* ---------- checkpoint journal ---------- *)

type checkpoint = { path : string; resume : bool }

(* One header line pins the campaign identity; one line per completed
   trial carries everything the fold needs.  Both are printed by
   [Json.render], whose layout is fixed, so resume can demand *exact*
   header equality — no ambiguity about what an old journal "roughly"
   matches — and trial lines read back with [Json.parse].  Two values
   travel as strings because a JSON number is a double: the rate in
   %h hex notation (lossless, so a rate never changes identity across
   write/read) and the per-trial seed, which has 62 bits. *)
let journal_header ~trials ~rate ~seed ~iters =
  Json.render
    (Json.Obj
       [
         ( "campaign",
           Json.Obj
             [
               ("trials", Json.int trials);
               ("rate", Json.Str (Printf.sprintf "%h" rate));
               ("seed", Json.int seed);
               ("iters", Json.int iters);
             ] );
       ])

let journal_trial_line ~trial ~tseed (cls, injected, applied) =
  Json.render
    (Json.Obj
       [
         ("trial", Json.int trial);
         ("seed", Json.Str (string_of_int tseed));
         ("class", Json.Str (trial_class_to_string cls));
         ("injected", Json.int injected);
         ("applied", Json.int applied);
       ])

(* [None] for a torn tail of a crashed run: absent work, not an error. *)
let parse_trial_line line =
  match Json.parse line with
  | Error _ -> None
  | Ok j -> (
      let field k f = Option.bind (Json.member k j) f in
      match
        ( field "trial" Json.to_int,
          Option.bind (field "seed" Json.to_string) int_of_string_opt,
          Option.bind (field "class" Json.to_string) trial_class_of_string,
          field "injected" Json.to_int,
          field "applied" Json.to_int )
      with
      | Some t, Some s, Some cls, Some i, Some a -> Some (t, s, (cls, i, a))
      | _ -> None)

(* [mk_io] must build a *fresh* io per trial: Store ops mutate the
   memory arrays, and a corrupted trial must not leak state into the
   next one.  (It is also called concurrently from worker domains, so
   it must not close over unsynchronised mutable state — the kernel
   library's stream/memory builders allocate fresh arrays.)

   Trials are embarrassingly parallel, and the report must not depend
   on how they interleave: every per-trial seed is drawn from the
   campaign RNG *before* the fan-out, in trial order — exactly the
   stream the old sequential loop drew — and the per-trial
   classifications land in a trial-indexed array that is folded
   sequentially.  The report is therefore bit-identical for any
   [workers], including 1; [Rng.t] itself is domain-unsafe and never
   crosses the fan-out (see rng.mli).

   Failure tolerance: trials run under [Ocgra_par.Supervise], so a
   raising trial (a bug, an injected [chaos] fault) is retried and,
   only if deterministically poisonous, counted as [quarantined] in
   the report instead of aborting the campaign — the strict [Pool.run] raise-through policy no longer applies here.
   Because a trial's record is a pure function of its pre-drawn seed,
   a retry recomputes the identical record, which is why a chaos-laden
   campaign whose retries mask every injection reports *exactly* the
   chaos-free totals.

   Checkpointing: with [checkpoint = Some { path; resume }] every
   completed trial is journaled (one line, fsync'd in batches) the
   moment it finishes, from whichever domain ran it.  With
   [resume = true] an existing journal is replayed first: its header
   must match this campaign exactly, every journaled seed must equal
   the pre-drawn seed of its trial (the exactly-once-per-seed
   guarantee), and replayed trials are skipped — never re-simulated,
   never re-journaled — so kill -9 followed by resume folds the same
   per-trial records in the same order and prints a byte-identical
   report. *)
let run_campaign ?workers ?(obs = Ocgra_obs.Ctx.off)
    ?(retries = Ocgra_par.Supervise.default_retries) ?(chaos = Ocgra_par.Chaos.none)
    ?checkpoint (p : Problem.t) (m : Mapping.t) ~mk_io ~iters ~expected ~trials ~rate ~seed =
  if trials < 0 then invalid_arg "Reliability.run_campaign: negative trial count";
  let rng = Ocgra_util.Rng.create (0xCA4A1 lxor seed) in
  let hz = horizon m ~iters in
  let seeds = Array.make trials 0 in
  for t = 0 to trials - 1 do
    seeds.(t) <- Ocgra_util.Rng.bits rng
  done;
  let header = journal_header ~trials ~rate ~seed ~iters in
  (* trial-indexed record slots; resume pre-fills them from the journal *)
  let completed = Array.make trials None in
  (match checkpoint with
  | Some { path; resume = true } -> (
      match Ocgra_par.Journal.read_lines path with
      | [] -> ()
      | hd :: rest ->
          if hd <> header then
            invalid_arg
              "Reliability.run_campaign: checkpoint journal does not match this campaign \
               (different trials/rate/seed/iters?)";
          List.iter
            (fun line ->
              match parse_trial_line line with
              | None -> () (* torn line from the crash: the trial reruns *)
              | Some (t, s, record) ->
                  if t < 0 || t >= trials then
                    invalid_arg "Reliability.run_campaign: journaled trial index out of range";
                  if s <> seeds.(t) then
                    invalid_arg
                      "Reliability.run_campaign: journaled seed mismatch — journal belongs to \
                       a different campaign";
                  completed.(t) <- Some record)
            rest)
  | Some { resume = false; _ } | None -> ());
  let resumed = Array.fold_left (fun n c -> if c <> None then n + 1 else n) 0 completed in
  let journal =
    match checkpoint with
    | None -> None
    | Some { path; resume } ->
        let j = Ocgra_par.Journal.open_append ~fresh:(not resume || resumed = 0) path in
        if resumed = 0 then Ocgra_par.Journal.append j header;
        Some j
  in
  let trial t () =
    let tseed = seeds.(t) in
    let transients = Ocgra_arch.Cgra.inject_transients p.cgra ~seed:tseed ~horizon:hz ~rate in
    let t0 = Deadline.now () in
    let cls, ts = classify p m ~io:(mk_io ()) ~iters ~expected ~transients in
    (* wall-clock latency goes to the histogram only, never into the
       event log — the log must stay byte-identical across runs *)
    Ocgra_obs.Ctx.observe obs "campaign.trial_us"
      (int_of_float ((Deadline.now () -. t0) *. 1e6));
    let applied = match ts with Some ts -> ts.Machine.applied | None -> 0 in
    let record = (cls, List.length transients, applied) in
    Option.iter
      (fun j -> Ocgra_par.Journal.append j (journal_trial_line ~trial:t ~tseed record))
      journal;
    record
  in
  (* only the not-yet-journaled trials fan out; chaos draws are keyed
     on the position in this pending array, which is itself a pure
     function of (journal contents, campaign params) *)
  let pending =
    Array.of_list
      (List.filter (fun t -> completed.(t) = None) (List.init trials (fun t -> t)))
  in
  let summary =
    Ocgra_obs.Ctx.span obs ~cat:"reliability" "campaign:trials" (fun () ->
        Ocgra_par.Supervise.run ?workers ~obs ~retries ~chaos (Array.map trial pending))
  in
  let journaled =
    match journal with
    | None -> 0
    | Some j ->
        let n = Ocgra_par.Journal.appended j - if resumed = 0 then 1 else 0 in
        Ocgra_par.Journal.close j;
        n
  in
  Array.iteri
    (fun k t ->
      match summary.Ocgra_par.Supervise.outcomes.(k) with
      | Ocgra_par.Supervise.Ok record -> completed.(t) <- Some record
      | Failed _ -> () (* stays None: quarantined below *))
    pending;
  let report =
    Array.fold_left
      (fun r slot ->
        match slot with
        | None -> { r with quarantined = r.quarantined + 1 }
        | Some (cls, injected, applied) -> (
            let r = { r with injected = r.injected + injected; applied = r.applied + applied } in
            match cls with
            | Correct -> { r with correct = r.correct + 1 }
            | Masked -> { r with masked = r.masked + 1 }
            | Detected -> { r with detected = r.detected + 1 }
            | Sdc -> { r with sdc = r.sdc + 1 }
            | Crash -> { r with crash = r.crash + 1 }))
      {
        trials;
        correct = 0;
        masked = 0;
        detected = 0;
        sdc = 0;
        crash = 0;
        injected = 0;
        applied = 0;
        quarantined = 0;
      }
      completed
  in
  (* trial outcomes enter the event log post-hoc, in trial-index order,
     from the same [completed] array the report folds — the log is a
     pure function of the campaign inputs, whatever the worker count.
     Only anomalies get a per-trial record; the closing summary always
     lands. *)
  Array.iteri
    (fun t slot ->
      match slot with
      | Some (Correct, _, _) -> ()
      | Some (cls, injected, applied) ->
          Ocgra_obs.Ctx.event obs ~cat:"campaign" "campaign.trial"
            [
              ("trial", Ocgra_obs.Events.Int t);
              ("class", Ocgra_obs.Events.Str (trial_class_to_string cls));
              ("injected", Ocgra_obs.Events.Int injected);
              ("applied", Ocgra_obs.Events.Int applied);
            ]
      | None ->
          Ocgra_obs.Ctx.event obs ~cat:"campaign" "campaign.trial"
            [
              ("trial", Ocgra_obs.Events.Int t);
              ("class", Ocgra_obs.Events.Str "quarantined");
            ])
    completed;
  Ocgra_obs.Ctx.event obs ~cat:"campaign" "campaign.done"
    [
      ("trials", Ocgra_obs.Events.Int report.trials);
      ("correct", Ocgra_obs.Events.Int report.correct);
      ("masked", Ocgra_obs.Events.Int report.masked);
      ("detected", Ocgra_obs.Events.Int report.detected);
      ("sdc", Ocgra_obs.Events.Int report.sdc);
      ("crash", Ocgra_obs.Events.Int report.crash);
      ("quarantined", Ocgra_obs.Events.Int report.quarantined);
    ];
  Ocgra_obs.Ctx.add obs "campaign.resumed" resumed;
  Ocgra_obs.Ctx.add obs "campaign.quarantined" report.quarantined;
  if checkpoint <> None then Ocgra_obs.Ctx.add obs "checkpoint.journaled" journaled;
  Ocgra_obs.Ctx.add obs "campaign.trials" report.trials;
  Ocgra_obs.Ctx.add obs "campaign.correct" report.correct;
  Ocgra_obs.Ctx.add obs "campaign.masked" report.masked;
  Ocgra_obs.Ctx.add obs "campaign.detected" report.detected;
  Ocgra_obs.Ctx.add obs "campaign.sdc" report.sdc;
  Ocgra_obs.Ctx.add obs "campaign.crash" report.crash;
  Ocgra_obs.Ctx.add obs "campaign.injected" report.injected;
  Ocgra_obs.Ctx.add obs "campaign.applied" report.applied;
  report

(* ---------- survivor campaign ---------- *)

(* How long does a mapping stay alive as the array rots under it?
   One survivor campaign walks an escalating seeded *permanent*-fault
   sequence — [Cgra.inject_faults] draws sequentially, so the mask at
   step k+1 strictly contains the mask at step k — and at every step
   salvages the previous step's mapping through [Repair]'s certified
   ladder, replaying the survivor on the cycle-accurate simulator.
   The walk yields the II-degradation curve, the repair-vs-scratch
   time ratio (each step also cold-remaps for comparison) and the
   certified-failure point: the first fault count at which no rung —
   fallback included — can certify a mapping. *)

type survivor_step = {
  step : int; (* faults injected at this step *)
  rung : Mapper.rung option;
  ii : int option;
  repair_s : float;
  scratch_s : float;
  scratch_ok : bool;
  replayed : bool;
  note : string;
}

type survivor_report = {
  steps : survivor_step list;
  survived : int;
  certified_failure : int option;
  ii_curve : (int * int) list;
  repair_vs_scratch : float option;
}

let survivor_step_to_string s =
  Printf.sprintf "step %d: %s%s repair %.3fs%s%s" s.step
    (match s.rung with
    | Some r -> Printf.sprintf "repaired (%s) II %s," (Mapper.rung_to_string r)
                  (match s.ii with Some ii -> string_of_int ii | None -> "?")
    | None -> "FAILED,")
    (if s.replayed then " replayed," else if s.rung = None then "" else " REPLAY MISMATCH,")
    s.repair_s
    (Printf.sprintf ", scratch %.3fs%s" s.scratch_s (if s.scratch_ok then "" else " (failed)"))
    (if s.note = "" then "" else " — " ^ s.note)

let survivor_to_string r =
  Printf.sprintf "survived %d fault(s)%s%s%s" r.survived
    (match r.certified_failure with
    | Some k -> Printf.sprintf ", certified failure at %d" k
    | None -> ", no certified failure within the walk")
    (match (r.ii_curve, List.rev r.ii_curve) with
    | (_, ii0) :: _, (_, iin) :: _ -> Printf.sprintf "; II %d -> %d" ii0 iin
    | _ -> "")
    (match r.repair_vs_scratch with
    | Some x -> Printf.sprintf "; repair %.1fx faster than scratch (median)" x
    | None -> "")

let run_survivor ?workers ?(obs = Ocgra_obs.Ctx.off) ?step_deadline_s ~chain (p : Problem.t)
    (m0 : Mapping.t) ~mk_io ~iters ~expected ~steps ~seed =
  if steps < 0 then invalid_arg "Reliability.run_survivor: negative step count";
  let base = p.Problem.cgra in
  let replay_ok pk m =
    match Machine.run pk m (mk_io ()) ~iters with
    | exception _ -> false
    | result ->
        List.for_all (fun (name, want) -> Machine.output_stream result name = want) expected
  in
  (* the walk is sequential, so emitting as each step closes is already
     deterministic; timings stay out of the payload *)
  let step_event s =
    Ocgra_obs.Ctx.event obs ~cat:"reliability" "survivor.step"
      [
        ("step", Ocgra_obs.Events.Int s.step);
        ( "rung",
          Ocgra_obs.Events.Str
            (match s.rung with Some r -> Mapper.rung_to_string r | None -> "none") );
        ( "ii",
          match s.ii with
          | Some ii -> Ocgra_obs.Events.Int ii
          | None -> Ocgra_obs.Events.Str "none" );
        ("replayed", Ocgra_obs.Events.Int (if s.replayed then 1 else 0));
      ]
  in
  let rec walk k m_prev acc =
    if k > steps then (List.rev acc, None)
    else begin
      (* the walk's mask strictly grows (sequential draws), layered on
         top of whatever faults the array already carried *)
      let mask =
        Ocgra_arch.Fault.canonical
          (Ocgra_arch.Cgra.faults base @ Ocgra_arch.Cgra.inject_faults base ~seed ~n:k)
      in
      let pk = { p with Problem.cgra = Ocgra_arch.Cgra.with_faults base mask } in
      (* each timed region starts on an empty minor heap, so neither is
         charged for collecting the garbage of what ran before it: a
         run's first collection also sets up the major heap, ~0.5 ms
         against the ~30 us of an untouched repair *)
      Gc.minor ();
      let t0 = Deadline.now () in
      let o =
        Ocgra_obs.Ctx.span obs ~cat:"reliability" "survivor:step" (fun () ->
            Repair.repair ~seed ~deadline:(Deadline.of_seconds step_deadline_s) ~obs
              ~fallback:chain ?workers pk m_prev)
      in
      let repair_s = Deadline.now () -. t0 in
      Gc.minor ();
      let t1 = Deadline.now () in
      let c = Mapper.Harness.race ~seed ?deadline_s:step_deadline_s ?workers ~obs chain pk in
      let scratch_s = Deadline.now () -. t1 and scratch_ok = c.Mapper.mapping <> None in
      match o.Repair.mapping with
      | Some m when replay_ok pk m ->
          let s =
            {
              step = k;
              rung = o.Repair.rung;
              ii = Some m.Mapping.ii;
              repair_s;
              scratch_s;
              scratch_ok;
              replayed = true;
              note = o.Repair.note;
            }
          in
          step_event s;
          walk (k + 1) m (s :: acc)
      | res ->
          (* no certified mapping — or one the simulator contradicts,
             which the certification contract treats as failure too *)
          let s =
            {
              step = k;
              rung = (match res with Some _ -> o.Repair.rung | None -> None);
              ii = None;
              repair_s;
              scratch_s;
              scratch_ok;
              replayed = false;
              note = o.Repair.note;
            }
          in
          step_event s;
          (List.rev (s :: acc), Some k)
    end
  in
  let steps_done, certified_failure = walk 1 m0 [] in
  let ii_curve =
    List.filter_map (fun s -> match s.ii with Some ii -> Some (s.step, ii) | None -> None)
      steps_done
  in
  let ratios =
    List.filter_map
      (fun s ->
        match s.rung with
        | Some _ when s.repair_s > 0.0 -> Some (s.scratch_s /. s.repair_s)
        | _ -> None)
      steps_done
  in
  let survived = match certified_failure with Some k -> k - 1 | None -> steps in
  Ocgra_obs.Ctx.add obs "survivor.steps" (List.length steps_done);
  Ocgra_obs.Ctx.add obs "survivor.survived" survived;
  let repair_vs_scratch =
    if ratios = [] then None else Some (Ocgra_util.Stats.median (Array.of_list ratios))
  in
  { steps = steps_done; survived; certified_failure; ii_curve; repair_vs_scratch }

(* ---------- hardening overhead ---------- *)

(* What the redundancy costs, measured on clean (fault-free) runs of
   the two mappings: the hardened kernel carries more ops, usually a
   higher II (the replicas compete for FU slots) and strictly more
   energy. *)
type overhead = {
  ii_base : int;
  ii_hard : int;
  ops_base : int;
  ops_hard : int;
  energy_base : float;
  energy_hard : float;
}

let ii_overhead o = (float_of_int o.ii_hard /. float_of_int o.ii_base) -. 1.0
let ops_overhead o = (float_of_int o.ops_hard /. float_of_int o.ops_base) -. 1.0
let energy_overhead o = (o.energy_hard /. o.energy_base) -. 1.0

let overhead_to_string o =
  Printf.sprintf "II %d -> %d (+%.0f%%), ops %d -> %d (+%.0f%%), energy %.1f -> %.1f (+%.0f%%)"
    o.ii_base o.ii_hard
    (100.0 *. ii_overhead o)
    o.ops_base o.ops_hard
    (100.0 *. ops_overhead o)
    o.energy_base o.energy_hard
    (100.0 *. energy_overhead o)

let measure_energy (p : Problem.t) (m : Mapping.t) ~mk_io ~iters =
  let result = Machine.run p m (mk_io ()) ~iters in
  Energy.of_mapping_run p.Problem.dfg
    ~npe:(Ocgra_arch.Cgra.pe_count p.Problem.cgra)
    ~iters result.Machine.stats

let overhead ~baseline:(p0, m0) ~hardened:(p1, m1) ~mk_io ~iters =
  {
    ii_base = m0.Mapping.ii;
    ii_hard = m1.Mapping.ii;
    ops_base = Ocgra_dfg.Dfg.node_count p0.Problem.dfg;
    ops_hard = Ocgra_dfg.Dfg.node_count p1.Problem.dfg;
    energy_base = measure_energy p0 m0 ~mk_io ~iters;
    energy_hard = measure_energy p1 m1 ~mk_io ~iters;
  }
