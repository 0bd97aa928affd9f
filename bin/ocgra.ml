(* ocgra — command-line front door to the framework.

     ocgra list                         kernels and mappers
     ocgra arch --rows 4 --cols 4       describe an array
     ocgra map -k fir4 -m modulo-greedy describe a mapping
     ocgra sim -k fir4 -m sat           map, simulate, verify
     ocgra table1                       the survey's Table I (corpus)
     ocgra timeline                     the survey's Fig. 4            *)

open Cmdliner

let mk_cgra rows cols topology hetero faults fault_seed =
  let topology = Ocgra_arch.Topology.of_string topology in
  let faults healthy =
    if faults = 0 then [] else Ocgra_arch.Cgra.inject_faults healthy ~seed:fault_seed ~n:faults
  in
  if hetero then Ocgra_arch.Cgra.adres_like ~faults ~topology ~rows ~cols ()
  else Ocgra_arch.Cgra.uniform ~faults ~topology ~rows ~cols ()

(* An int that must be at least [lo]: an out-of-range value is a usage
   error here instead of a crash or a hang deep inside the run. *)
let int_at_least lo =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < lo -> Error (`Msg (Printf.sprintf "%d is below the minimum %d" n lo))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

(* A finite float [ok] accepts, [what] naming the accepted range: NaN,
   an infinity or an out-of-range value is a usage error here instead
   of a silently disabled deadline, gate or injection deep inside the
   run. *)
let float_where what ok =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok x when not (Float.is_finite x && ok x) ->
        Error (`Msg (Printf.sprintf "%s is not %s" s what))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let positive = float_where "a finite number above 0" (fun x -> x > 0.0)
let non_negative = float_where "a finite number of at least 0" (fun x -> x >= 0.0)
let probability = float_where "a probability in [0, 1]" (fun x -> x >= 0.0 && x <= 1.0)

(* A name [find] resolves, kept as written; [find] raising
   [Invalid_argument] makes it a usage error that lists the [valid]
   names instead of an uncaught exception. *)
let known what find valid =
  let parse s =
    match find s with
    | _ -> Ok s
    | exception Invalid_argument _ ->
        Error
          (`Msg
             (Printf.sprintf "%S names an unknown %s; valid: %s" s what
                (String.concat ", " (valid ()))))
  in
  Arg.conv (parse, Format.pp_print_string)

(* [find] is [Registry.find] for one name, [Registry.chain_of_spec]
   for a comma-separated chain *)
let mapper_name find =
  known "mapper" find (fun () ->
      List.map
        (fun (m : Ocgra_core.Mapper.t) -> m.name)
        (Ocgra_mappers.Registry.all @ Ocgra_mappers.Registry.extras))

let rows_t = Arg.(value & opt (int_at_least 1) 4 & info [ "rows" ] ~doc:"Array rows.")
let cols_t = Arg.(value & opt (int_at_least 1) 4 & info [ "cols" ] ~doc:"Array columns.")

let topo_t =
  let valid () = List.map Ocgra_arch.Topology.to_string Ocgra_arch.Topology.all in
  Arg.(
    value
    & opt (known "topology" Ocgra_arch.Topology.of_string valid) "mesh"
    & info [ "topology" ] ~doc:"mesh|torus|diagonal|one-hop|full.")

let hetero_t =
  Arg.(value & flag & info [ "hetero" ] ~doc:"ADRES-like heterogeneous array.")

let kernel_t =
  let valid () =
    List.map (fun (k : Ocgra_workloads.Kernels.t) -> k.name) (Ocgra_workloads.Kernels.all ())
  in
  Arg.(
    value
    & opt (known "kernel" Ocgra_workloads.Kernels.find valid) "dot-product"
    & info [ "k"; "kernel" ] ~doc:"Kernel name.")

let mapper_t =
  Arg.(
    value
    & opt (mapper_name Ocgra_mappers.Registry.find) "modulo-greedy"
    & info [ "m"; "mapper" ]
        ~doc:
          "Mapper name (see $(b,list)); also accepts the off-table extras $(b,constructive) \
           and $(b,sat-cold), the cold-per-II baseline of the incremental SAT sweep.")

let seed_t = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.")

let spatial_t = Arg.(value & flag & info [ "spatial" ] ~doc:"Spatial (II=1) problem.")

let faults_t =
  Arg.(
    value & opt (int_at_least 0) 0
    & info [ "faults" ] ~doc:"Inject $(docv) random resource faults.")

let fault_seed_t =
  Arg.(value & opt int 1 & info [ "fault-seed" ] ~doc:"Seed for fault injection.")

let deadline_t =
  Arg.(
    value
    & opt (some positive) None
    & info [ "deadline" ] ~doc:"Wall-clock mapping budget in seconds.")

let fallback_t =
  Arg.(
    value
    & opt (some (mapper_name Ocgra_mappers.Registry.chain_of_spec)) None
    & info [ "fallback" ]
        ~doc:"Comma-separated fallback chain of mappers (overrides $(b,-m)), tried in order.")

let jobs_t =
  Arg.(
    value & opt (int_at_least 0) 1
    & info [ "jobs"; "j" ]
        ~doc:
          "Worker domains: with $(b,--fallback), race the tiers concurrently (first validated \
           success wins and cancels the rest); with $(b,--campaign), shard the trials.  0 = all \
           cores (or \\$OCGRA_JOBS).")

let resolve_jobs j = if j = 0 then Ocgra_par.Pool.default_workers () else j

let harden_t =
  Arg.(
    value
    & opt
        (enum
           (List.map
              (fun m -> (Ocgra_dfg.Harden.mode_to_string m, m))
              Ocgra_dfg.Harden.[ No_harden; Dmr; Tmr ]))
        Ocgra_dfg.Harden.No_harden
    & info [ "harden" ] ~doc:"Hardening transform applied before mapping: none|dmr|tmr.")

let campaign_t =
  Arg.(
    value & opt (int_at_least 0) 0
    & info [ "campaign" ]
        ~doc:"Run a Monte-Carlo reliability campaign of $(docv) fault-injection trials.")

let fault_rate_t =
  Arg.(
    value & opt probability 0.002
    & info [ "fault-rate" ]
        ~doc:"Transient-event probability per PE per cycle during the campaign.")

let retries_t =
  Arg.(
    value
    & opt (int_at_least 0) Ocgra_par.Supervise.default_retries
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Extra tries after the first, so at most 1 + $(docv) tries: of each failing fallback \
           tier (seed-varied), of a raising campaign trial and of a raising $(b,serve) cold map \
           (each rerun at once).")

let chaos_t =
  Arg.(
    value & opt probability 0.0
    & info [ "chaos" ]
        ~doc:
          "Chaos injection: kill each campaign trial try with probability $(docv) (seeded from \
           $(b,--fault-seed), so the fault pattern is reproducible).  Killed tries are retried up \
           to $(b,--retries) times; a trial that keeps dying is quarantined, never fatal.")

let checkpoint_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Journal every completed campaign trial to $(docv) (append-only JSON lines, fsync'd in \
           batches) so a killed campaign can be resumed.")

let resume_t =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Replay the $(b,--checkpoint) journal before running: completed trials are skipped and \
           the final report is byte-identical to an uninterrupted run.")

let repair_t =
  Arg.(
    value & opt (int_at_least 0) 0
    & info [ "repair" ]
        ~doc:
          "After mapping, degrade the array to $(docv) more faults (same $(b,--fault-seed) \
           sequence, so the new mask contains the old one) and salvage the mapping through the \
           certified repair ladder instead of remapping cold.")

let survivor_t =
  Arg.(
    value & opt (int_at_least 0) 0
    & info [ "survivor" ]
        ~doc:
          "Survivor campaign: walk $(docv) escalating seeded permanent faults, at each step \
           repairing the previous mapping through the certified ladder and replaying it on the \
           simulator; reports the II-degradation curve, repair-vs-scratch time ratio and the \
           certified failure point.")

let chain_of mapper fallback =
  match fallback with
  | Some spec -> Ocgra_mappers.Registry.chain_of_spec spec
  | None -> [ Ocgra_mappers.Registry.find mapper ]

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace-event JSON of the run to $(docv) (chrome://tracing).")

let metrics_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the run's counters to $(docv): a flat JSON object when the path ends in .json, \
           $(b,key=value) lines otherwise.  Dumps are name-sorted with integer values only, so \
           two runs that did the same work are byte-identical.")

let events_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"FILE"
        ~doc:
          "Write the run's structured event log to $(docv) as JSON lines (one object per line): \
           per-II SAT convergence, repair-ladder rungs, harness tier verdicts, campaign trial \
           outcomes.  Events carry no wall-clock payloads, so for a fixed seed the log is \
           byte-identical across worker counts.")

(* The observability context is live exactly when at least one output
   file was asked for; with no flag the whole stack sees [Ctx.off] and
   pays one branch per instrumented site. *)
let mk_obs trace metrics events =
  match (trace, metrics, events) with
  | None, None, None -> Ocgra_obs.Ctx.off
  | _ ->
      Ocgra_obs.Ctx.v
        ~trace:(if trace <> None then Ocgra_obs.Trace.create () else Ocgra_obs.Trace.off)
        ~metrics:(if metrics <> None then Ocgra_obs.Metrics.create () else Ocgra_obs.Metrics.off)
        ~events:(if events <> None then Ocgra_obs.Events.create () else Ocgra_obs.Events.off)
        ()

let write_obs obs trace metrics events =
  Option.iter (Ocgra_obs.Export.write_chrome_trace (Ocgra_obs.Ctx.trace obs)) trace;
  Option.iter
    (Ocgra_obs.Export.write_metrics ~hists:(Ocgra_obs.Ctx.hists obs) (Ocgra_obs.Ctx.metrics obs))
    metrics;
  Option.iter (Ocgra_obs.Export.write_events (Ocgra_obs.Ctx.events obs)) events

(* Map through the fallback harness when a chain is given, else through
   the single named mapper; both paths validate the result.  With
   [jobs] > 1 the chain is raced across domains instead of walked in
   order — same validated answer contract, min-over-tiers latency. *)
let run_mapper ?(obs = Ocgra_obs.Ctx.off) ?(retries = Ocgra_par.Supervise.default_retries)
    mapper fallback seed deadline jobs p =
  match fallback with
  | Some spec ->
      let chain = Ocgra_mappers.Registry.chain_of_spec spec in
      let workers = resolve_jobs jobs in
      if workers > 1 then
        Ocgra_core.Mapper.Harness.race ~seed ?deadline_s:deadline ~workers ~obs chain p
      else Ocgra_core.Mapper.Harness.run ~seed ?deadline_s:deadline ~retries ~obs chain p
  | None ->
      Ocgra_core.Mapper.run (Ocgra_mappers.Registry.find mapper) ~seed ?deadline_s:deadline ~obs p

let list_cmd =
  let run () =
    print_endline "kernels:";
    List.iter
      (fun (k : Ocgra_workloads.Kernels.t) -> Printf.printf "  %-14s %s\n" k.name k.description)
      (Ocgra_workloads.Kernels.all ());
    print_endline "\nmappers (scope / technique):";
    List.iter
      (fun (m : Ocgra_core.Mapper.t) ->
        Printf.printf "  %-18s %-18s %-24s %s\n" m.name
          (Ocgra_core.Taxonomy.scope_to_string m.scope)
          (Ocgra_core.Taxonomy.approach_to_string m.approach)
          m.citation)
      Ocgra_mappers.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List kernels and mappers") Term.(const run $ const ())

let arch_cmd =
  let run rows cols topo hetero faults fault_seed =
    print_string (Ocgra_arch.Cgra.describe (mk_cgra rows cols topo hetero faults fault_seed))
  in
  Cmd.v (Cmd.info "arch" ~doc:"Describe a CGRA instance")
    Term.(const run $ rows_t $ cols_t $ topo_t $ hetero_t $ faults_t $ fault_seed_t)

let problem_of kernel spatial cgra =
  let k = Ocgra_workloads.Kernels.find kernel in
  let p =
    if spatial then Ocgra_core.Problem.spatial ~init:k.init ~dfg:k.dfg ~cgra ()
    else Ocgra_core.Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra ()
  in
  (k, p)

let map_cmd =
  let run kernel mapper rows cols topo hetero seed spatial faults fault_seed deadline fallback
      retries repair jobs trace metrics events =
    let cgra = mk_cgra rows cols topo hetero faults fault_seed in
    let k, p = problem_of kernel spatial cgra in
    Printf.printf "%s\n" (Ocgra_core.Problem.describe p);
    let obs = mk_obs trace metrics events in
    let o = run_mapper ~obs ~retries mapper fallback seed deadline jobs p in
    (* the mapper's note, when it left one, follows the attempt count *)
    let note ~before ~after = if o.note = "" then "" else before ^ o.note ^ after in
    (match o.mapping with
    | None ->
        Printf.printf "mapping failed after %d attempts%s\n" o.attempts
          (note ~before:" (" ~after:")")
    | Some mapping ->
        let cost = Ocgra_core.Cost.of_mapping p mapping in
        Printf.printf "mapped: %s%s in %.2fs (%d attempts%s)\n"
          (Ocgra_core.Cost.to_string cost)
          (if o.proven_optimal then ", II optimal" else "")
          o.elapsed_s o.attempts
          (note ~before:"; " ~after:"");
        print_string (Ocgra_core.Mapping.to_grid mapping k.dfg cgra));
    if o.trail <> [] then begin
      Printf.printf "tiers:\n";
      List.iter
        (fun r -> Printf.printf "  %s\n" (Ocgra_core.Mapper.report_to_string r))
        o.trail
    end;
    (* --repair: degrade the same fabric further (the seeded draw is
       sequential, so the escalated mask contains the original one) and
       salvage the mapping we just printed through the ladder *)
    (match (o.mapping, repair > 0) with
    | Some mapping, true ->
        let base = mk_cgra rows cols topo hetero 0 fault_seed in
        let mask = Ocgra_arch.Cgra.inject_faults base ~seed:fault_seed ~n:(faults + repair) in
        let cgra' = Ocgra_arch.Cgra.with_faults base mask in
        let p' = { p with Ocgra_core.Problem.cgra = cgra' } in
        Printf.printf "repair: degrading to %s\n" (Ocgra_arch.Fault.list_to_string mask);
        let r =
          Ocgra_core.Repair.repair ~seed
            ~deadline:(Ocgra_core.Deadline.of_seconds deadline)
            ~obs
            ~fallback:(chain_of mapper fallback)
            ~workers:(resolve_jobs jobs) p' mapping
        in
        Printf.printf "diagnosis: %s\n"
          (Ocgra_core.Repair.diagnosis_to_string r.Ocgra_core.Repair.diagnosis);
        (match r.Ocgra_core.Repair.mapping with
        | Some m' ->
            Printf.printf "repaired: %s in %.3fs (%s)\n"
              (Ocgra_core.Cost.to_string (Ocgra_core.Cost.of_mapping p' m'))
              r.Ocgra_core.Repair.elapsed_s r.Ocgra_core.Repair.note;
            print_string (Ocgra_core.Mapping.to_grid m' k.dfg cgra')
        | None -> Printf.printf "repair failed: %s\n" r.Ocgra_core.Repair.note);
        Printf.printf "rungs:\n";
        List.iter
          (fun tr -> Printf.printf "  %s\n" (Ocgra_core.Mapper.report_to_string tr))
          r.Ocgra_core.Repair.trail
    | _ -> ());
    write_obs obs trace metrics events
  in
  Cmd.v (Cmd.info "map" ~doc:"Map a kernel with a mapper")
    Term.(
      const run $ kernel_t $ mapper_t $ rows_t $ cols_t $ topo_t $ hetero_t $ seed_t $ spatial_t
      $ faults_t $ fault_seed_t $ deadline_t $ fallback_t $ retries_t $ repair_t $ jobs_t
      $ trace_t $ metrics_t $ events_t)

let sim_cmd =
  let run kernel mapper rows cols topo hetero seed iters faults fault_seed deadline fallback mode
      campaign fault_rate retries chaos checkpoint resume survivor jobs trace metrics events =
    let obs = mk_obs trace metrics events in
    let cgra = mk_cgra rows cols topo hetero faults fault_seed in
    if faults > 0 then
      Printf.printf "faults: %s\n"
        (Ocgra_arch.Fault.list_to_string (Ocgra_arch.Cgra.faults cgra));
    let k, p_base = problem_of kernel false cgra in
    (* hardening is a DFG-level rewrite: the mapper sees an ordinary
       (if larger) problem; init values follow the replicas via the
       origin map *)
    let hdfg, origin = Ocgra_dfg.Harden.apply mode k.dfg in
    let p =
      if mode = Ocgra_dfg.Harden.No_harden then p_base
      else Ocgra_core.Problem.temporal ~init:(fun v -> k.init (origin v)) ~dfg:hdfg ~cgra ()
    in
    if mode <> Ocgra_dfg.Harden.No_harden then
      Printf.printf "hardening: %s (%d -> %d ops)\n"
        (Ocgra_dfg.Harden.mode_to_string mode)
        (Ocgra_dfg.Dfg.node_count k.dfg)
        (Ocgra_dfg.Dfg.node_count hdfg);
    let o = run_mapper ~obs ~retries mapper fallback seed deadline jobs p in
    (match o.mapping with
    | None -> Printf.printf "mapping failed (%s)\n" o.note
    | Some mapping -> (
        Printf.printf "mapped in %.2fs (%s)\n" o.elapsed_s o.note;
        let mk_io () = Ocgra_sim.Machine.io_of_streams ~memory:k.memory (k.inputs iters) in
        match Ocgra_sim.Machine.run ~obs p mapping (mk_io ()) ~iters with
        | exception Ocgra_sim.Machine.Simulation_error e ->
            Printf.printf "simulation refused: cycle %d, PE %d: %s\n" e.cycle e.pe e.message
        | result ->
            let reference = Ocgra_workloads.Kernels.eval_reference k ~iters in
            Printf.printf "II=%d; %d iterations in %d cycles; %d op instances, %d route instances\n"
              mapping.Ocgra_core.Mapping.ii iters result.Ocgra_sim.Machine.stats.cycles
              result.Ocgra_sim.Machine.stats.op_instances
              result.Ocgra_sim.Machine.stats.route_instances;
            let expected =
              List.map
                (fun name -> (name, Ocgra_dfg.Eval.output_stream reference name))
                k.outputs
            in
            List.iter
              (fun (name, want) ->
                let got = Ocgra_sim.Machine.output_stream result name in
                Printf.printf "output %-8s %s\n" name
                  (if got = want then "matches the reference interpreter" else "MISMATCH"))
              expected;
            if campaign > 0 then begin
              (* trials shard across domains; the report is
                 bit-identical for any worker count, chaos-masked
                 retries included *)
              let workers = resolve_jobs jobs in
              let chaos_t =
                if chaos > 0.0 then
                  Ocgra_par.Chaos.make ~fail_rate:chaos ~seed:(0xC4A05 lxor fault_seed) ()
                else Ocgra_par.Chaos.none
              in
              let checkpoint_t =
                Option.map
                  (fun path -> { Ocgra_sim.Reliability.path; resume })
                  checkpoint
              in
              if chaos > 0.0 then
                Printf.printf "chaos: injecting task failures at rate %g (retries %d)\n" chaos
                  retries;
              (match checkpoint with
              | Some path ->
                  Printf.printf "checkpoint: %s journal %s\n"
                    (if resume then "resuming from" else "writing")
                    path
              | None -> ());
              let rep =
                Ocgra_sim.Reliability.run_campaign ~workers ~obs ~retries ~chaos:chaos_t
                  ?checkpoint:checkpoint_t p mapping ~mk_io ~iters ~expected ~trials:campaign
                  ~rate:fault_rate ~seed:fault_seed
              in
              Printf.printf "campaign (%s, rate %g, seed %d): %s\n"
                (Ocgra_dfg.Harden.mode_to_string mode)
                fault_rate fault_seed
                (Ocgra_sim.Reliability.to_string rep);
              (* hardened runs are judged against the unhardened
                 mapping of the same kernel under the same fault load *)
              if mode <> Ocgra_dfg.Harden.No_harden then begin
                let o0 = run_mapper mapper fallback seed deadline jobs p_base in
                match o0.mapping with
                | None -> Printf.printf "baseline mapping failed (%s)\n" o0.note
                | Some m0 ->
                    let rep0 =
                      Ocgra_sim.Reliability.run_campaign ~workers p_base m0 ~mk_io ~iters ~expected
                        ~trials:campaign ~rate:fault_rate ~seed:fault_seed
                    in
                    Printf.printf "baseline (none, rate %g, seed %d): %s\n" fault_rate fault_seed
                      (Ocgra_sim.Reliability.to_string rep0);
                    let ov =
                      Ocgra_sim.Reliability.overhead ~baseline:(p_base, m0) ~hardened:(p, mapping)
                        ~mk_io ~iters
                    in
                    Printf.printf "hardening overhead: %s\n"
                      (Ocgra_sim.Reliability.overhead_to_string ov)
              end
            end;
            if survivor > 0 then begin
              (* escalating permanent faults, each step salvaged by the
                 certified ladder and replayed on the simulator *)
              let rep =
                Ocgra_sim.Reliability.run_survivor ~workers:(resolve_jobs jobs) ~obs
                  ?step_deadline_s:deadline
                  ~chain:(chain_of mapper fallback)
                  p mapping ~mk_io ~iters ~expected ~steps:survivor ~seed:fault_seed
              in
              List.iter
                (fun s ->
                  Printf.printf "  %s\n" (Ocgra_sim.Reliability.survivor_step_to_string s))
                rep.Ocgra_sim.Reliability.steps;
              Printf.printf "survivor (seed %d): %s\n" fault_seed
                (Ocgra_sim.Reliability.survivor_to_string rep)
            end));
    write_obs obs trace metrics events
  in
  let iters_t =
    Arg.(value & opt (int_at_least 0) 12 & info [ "iters" ] ~doc:"Loop iterations.")
  in
  Cmd.v (Cmd.info "sim" ~doc:"Map, simulate and verify a kernel")
    Term.(
      const run $ kernel_t $ mapper_t $ rows_t $ cols_t $ topo_t $ hetero_t $ seed_t $ iters_t
      $ faults_t $ fault_seed_t $ deadline_t $ fallback_t $ harden_t $ campaign_t $ fault_rate_t
      $ retries_t $ chaos_t $ checkpoint_t $ resume_t $ survivor_t $ jobs_t $ trace_t $ metrics_t
      $ events_t)

(* The gate over BENCH_*.json snapshots: every deterministic leaf
   exact, wall-clock leaves within --tol-time.  Exit codes are the
   contract CI scripts on: 0 clean, 1 a leaf changed or slowed beyond
   tolerance, 2 unreadable/mismatched snapshots or structural drift. *)
let report_cmd =
  let run candidate against tol_time json_out =
    let module D = Ocgra_obs.Bench_diff in
    let load_or_die path =
      match D.load path with
      | Ok s -> s
      | Error e ->
          Printf.eprintf "report: %s\n" e;
          exit 2
    in
    let baseline = load_or_die against in
    (* no candidate = self-diff: a snapshot must always pass against
       itself, which is the gate's own sanity check *)
    let candidate = match candidate with Some p -> load_or_die p | None -> baseline in
    match D.diff ~tol_time ~baseline ~candidate () with
    | Error e ->
        Printf.eprintf "report: %s\n" e;
        exit 2
    | Ok r ->
        print_string (D.render_human r);
        Option.iter
          (fun path ->
            Ocgra_obs.Export.write_file path (Ocgra_obs.Json.render (D.to_json r) ^ "\n"))
          json_out;
        if r.D.structural <> [] then exit 2 else if r.D.failures <> [] then exit 1
  in
  let candidate_t =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"CANDIDATE"
          ~doc:"Candidate snapshot to judge; omitted = self-diff the baseline (always exits 0).")
  in
  let against_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "against" ] ~docv:"BASELINE" ~doc:"Baseline BENCH_*.json snapshot.")
  in
  let tol_time_t =
    Arg.(
      value & opt non_negative 0.25
      & info [ "tol-time" ]
          ~doc:"Relative tolerance for wall-clock leaves (0.25 = 25% slower still passes).")
  in
  let json_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the machine-readable diff report to $(docv).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Diff two BENCH_*.json snapshots and exit non-zero if any deterministic leaf (count, \
          II, verdict) changed or a wall-clock leaf slowed beyond --tol-time (the CI gate). \
          Schema-stamped snapshots only; mismatched schema or bench names are refused.")
    Term.(const run $ candidate_t $ against_t $ tol_time_t $ json_t)

(* The mapping daemon: JSONL requests in, JSONL responses out, one
   canonical-form cache across the whole stream.  A malformed line
   costs an error *response* and a non-zero exit at the end — the
   daemon itself never crashes on input. *)
let serve_cmd =
  let run input output batch cache_cap mapper fallback jobs seed deadline retries trace metrics
      events =
    let obs = mk_obs trace metrics events in
    let svc =
      Ocgra_svc.Svc.create ~obs
        {
          Ocgra_svc.Svc.capacity = cache_cap;
          chain = chain_of mapper fallback;
          workers = resolve_jobs jobs;
          deadline_s = deadline;
          seed;
          retries;
        }
    in
    let lookup name =
      match Ocgra_workloads.Kernels.find name with
      | k -> Ok k.Ocgra_workloads.Kernels.dfg
      | exception Invalid_argument m -> Error m
    in
    (* stdin and a file read alike: each line keeps its physical
       number, and lines blank after trimming are skipped *)
    let lines =
      (match input with
      | "-" -> In_channel.input_all stdin
      | path when Sys.file_exists path -> In_channel.with_open_bin path In_channel.input_all
      | _ -> "")
      |> String.split_on_char '\n'
      |> List.mapi (fun i line -> (i + 1, line))
      |> List.filter (fun (_, line) -> String.trim line <> "")
    in
    (* responses go through the journal's fsync discipline when writing
       to a file, so a killed daemon leaves at most one torn tail *)
    let journal, to_stdout =
      match output with
      | None -> (None, true)
      | Some path -> (Some (Ocgra_par.Journal.open_append ~fresh:true ~fsync_every:64 path), false)
    in
    let emit line =
      match journal with Some j -> Ocgra_par.Journal.append j line | None -> print_endline line
    in
    let errors = ref 0 in
    let t0 = Ocgra_core.Deadline.now () in
    (* classify each line, then serve batch-by-batch; responses keep
       input order, with error responses interleaved back in place *)
    let items =
      List.map
        (fun (n, line) ->
          match Ocgra_svc.Wire.parse_req line with
          | Ok r -> (
              match Ocgra_svc.Wire.to_request ~lookup r with
              | Ok req -> Ok req
              | Error msg ->
                  incr errors;
                  Error (Ocgra_svc.Wire.error_to_json ~id:r.Ocgra_svc.Wire.id msg))
          | Error msg ->
              incr errors;
              Error
                (Ocgra_svc.Wire.error_to_json
                   ~id:(Ocgra_svc.Wire.salvage_id ~line:n line)
                   msg))
        lines
    in
    let rec take k acc = function
      | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let rec chunks = function
      | [] -> ()
      | items ->
          let chunk, rest = take batch [] items in
          let reqs = List.filter_map (function Ok r -> Some r | Error _ -> None) chunk in
          let resps = ref (Ocgra_svc.Svc.submit_batch svc reqs) in
          List.iter
            (function
              | Error line -> emit line
              | Ok _ -> (
                  match !resps with
                  | r :: tl ->
                      resps := tl;
                      emit (Ocgra_svc.Wire.response_to_json r)
                  | [] -> ()))
            chunk;
          chunks rest
    in
    chunks items;
    Option.iter Ocgra_par.Journal.close journal;
    let s = Ocgra_svc.Svc.stats svc in
    let summary =
      Printf.sprintf
        "serve: %d requests in %.2fs: %d hits + %d iso + %d repair / %d cold, %d rejected, %d \
         errors; cache %d/%d entries, %d evictions, %d coalesced, %d demotions"
        (List.length lines)
        (Ocgra_core.Deadline.now () -. t0)
        s.Ocgra_svc.Svc.hits s.Ocgra_svc.Svc.iso_hits s.Ocgra_svc.Svc.repair_hits
        s.Ocgra_svc.Svc.misses s.Ocgra_svc.Svc.rejections !errors s.Ocgra_svc.Svc.entries
        cache_cap s.Ocgra_svc.Svc.evictions s.Ocgra_svc.Svc.coalesced s.Ocgra_svc.Svc.demotions
    in
    if to_stdout then prerr_endline summary else print_endline summary;
    write_obs obs trace metrics events;
    if !errors > 0 then exit 1
  in
  let input_t =
    Arg.(
      value & opt string "-"
      & info [ "in" ] ~docv:"FILE" ~doc:"Request stream, one JSON object per line; - = stdin.")
  in
  let output_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write responses to $(docv) (append-only journal, fsynced in batches); default \
             stdout.  Responses carry no wall-clock fields, so the file is byte-identical \
             across $(b,--jobs) values.")
  in
  let batch_t =
    Arg.(
      value & opt (int_at_least 1) 32
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Serve requests in batches of $(docv): misses drain the pool together, in-batch \
             duplicates coalesce onto one cold map.")
  in
  let cache_t =
    Arg.(
      value & opt (int_at_least 1) 256
      & info [ "cache" ] ~doc:"Mapping-cache capacity (LRU by request order beyond this).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Mapping as a service: read JSONL mapping requests, serve them through the \
          canonical-form cache (isomorphic kernels hit; grown fault masks repair instead of \
          remapping), write JSONL responses.  Exits non-zero if any line was malformed.")
    Term.(
      const run $ input_t $ output_t $ batch_t $ cache_t $ mapper_t $ fallback_t $ jobs_t
      $ seed_t $ deadline_t $ retries_t $ trace_t $ metrics_t $ events_t)

let table1_cmd =
  let run () = print_string (Ocgra_biblio.Table1.render ()) in
  Cmd.v (Cmd.info "table1" ~doc:"Regenerate the survey's Table I") Term.(const run $ const ())

let timeline_cmd =
  let run () = print_string (Ocgra_biblio.Timeline.render ()) in
  Cmd.v (Cmd.info "timeline" ~doc:"Regenerate the survey's Fig. 4") Term.(const run $ const ())

let () =
  let info = Cmd.info "ocgra" ~doc:"Twenty years of CGRA mapping, as one toolkit" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; arch_cmd; map_cmd; sim_cmd; serve_cmd; report_cmd; table1_cmd; timeline_cmd ]))
