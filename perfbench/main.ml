(* One benchmark for the compile and serve paths, end to end and layer
   by layer.  Build and run it from the repository root:

     bash perfbench/run.sh --workload heuristic-flow|exact-sat|serve-stream \
       --seed N --seconds S --trace 0|1

   A run repeats whole passes over the seed's inputs for about S
   seconds (at least one).  --trace 0 passes [Ctx.off] everywhere and
   reports the end-to-end metrics.  --trace 1 alternates untraced and
   traced passes and reports per-layer metrics, a self-time table and
   the tracing overhead.  Every pass runs the correctness gate, and
   every pass must reproduce the first one's exact work counts.  The
   last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics.  See NOTES.md. *)

module W = Workloads
module Ctx = Ocgra_obs.Ctx
module Trace = Ocgra_obs.Trace
module Metrics = Ocgra_obs.Metrics
module Hist = Ocgra_obs.Hist

let quantile q = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i + 1 < Array.length a then a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
      else a.(i)

let median = quantile 0.5
let geomean l = exp (List.fold_left (fun acc x -> acc +. log x) 0.0 l /. float_of_int (List.length l))

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

(* Set-up is cheap next to a pass, so repeat it until the median is
   steady: at least 9 times and 0.3 s, at most 400 times. *)
let setup_seconds make seed =
  let rec go n total acc =
    if n >= 400 || (n >= 9 && total >= 0.3) then median acc
    else
      let _, dt = W.timed (fun () -> make seed Ctx.off) in
      go (n + 1) (total +. dt) (dt :: acc)
  in
  go 0 0.0 []

type run = { pass : W.pass; wall_s : float; obs : Ctx.t }

let answered (p : W.pass) = List.length p.W.answers

(* Certified answers per timed second, pooled over passes. *)
let throughput runs =
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 runs in
  sum (fun r -> float_of_int (answered r.pass)) /. sum (fun r -> r.pass.W.timed_s)

(* Latencies of the answers served by a matching path, pooled over passes. *)
let latencies runs pred =
  List.concat_map
    (fun r -> List.filter_map (fun (path, s) -> if pred path then Some s else None) r.pass.W.answers)
    runs

let run_pass make seed obs =
  let go = make seed obs in
  let pass, wall_s = W.timed go in
  { pass; wall_s; obs }

(* [f ()] with the minor words allocated and major collections run. *)
let with_gc f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  (r, g1.Gc.minor_words -. g0.Gc.minor_words, g1.Gc.major_collections - g0.Gc.major_collections)

let word_mb words = words *. float_of_int (Sys.word_size / 8) /. 1e6

(* ------------------------------------------------------------------ *)
(* per-layer metrics of the traced passes (per-pass means)             *)
(* ------------------------------------------------------------------ *)

let per_layer ~untraced ~traced ~minor_words ~majors =
  let n = float_of_int (List.length traced) in
  let mean f = List.fold_left (fun acc r -> acc +. f r) 0.0 traced /. n in
  let selfs = List.map (fun r -> Layers.self_times (Trace.spans (Ctx.trace r.obs))) traced in
  let time pred = List.fold_left (fun acc s -> acc +. Layers.sum_self s pred) 0.0 selfs /. n in
  let is name s = s = name in
  let pre p s = String.starts_with ~prefix:p s in
  let spans name r =
    let is_named (s : Trace.span) = s.Trace.name = name in
    float_of_int (List.length (List.filter is_named (Trace.spans (Ctx.trace r.obs))))
  in
  let count name =
    mean (fun r ->
        match List.assoc_opt name r.pass.W.fingerprint with
        | Some v -> float_of_int v
        | None -> float_of_int (Metrics.get (Ctx.metrics r.obs) name))
  in
  let hist_count name =
    mean (fun r ->
        match List.assoc_opt name (Hist.dump (Ctx.hists r.obs)) with
        | Some s -> float_of_int s.Hist.count
        | None -> 0.0)
  in
  let div num den = if den > 0.0 then num /. den else 0.0 in
  let sat_s = time (pre "sat:") in
  let path_q q scale pred = scale *. quantile q (latencies untraced pred) in
  let requests =
    List.fold_left ( +. ) 0.0
      (List.map count [ "svc.hits"; "svc.iso_hits"; "svc.repair_hits"; "svc.misses"; "svc.rejections" ])
  in
  [
    ("sat.solve_s", "s", sat_s);
    ("sat.conflicts", "count", count "sat.conflicts");
    ("sat.decisions", "count", count "sat.decisions");
    ("sat.propagations", "count", count "sat.propagations");
    ("sat.restarts", "count", count "sat.restarts");
    ("sat.reduces", "count", count "sat.reduces");
    ("sat.props_per_s", "1/s", div (count "sat.propagations") sat_s);
    ("sat.conflicts_per_s", "1/s", div (count "sat.conflicts") sat_s);
    ("mapper.run_s", "s", time (pre "map:"));
    ("mapper.attempts", "count", count "mapper.attempts");
    ("constructive.attempts", "count", count "constructive.attempts");
    ("pathfinder.iterations", "count", count "pathfinder.iterations");
    ("pathfinder.ripup.count", "count", hist_count "pathfinder.ripup");
    ("check.validate_s", "s", time (is "validate"));
    ("check.replay_s", "s", time (is "gate:validate"));
    ("check.calls", "count", mean (spans "validate") +. mean (spans "gate:validate"));
    ( "check.violations",
      "count",
      mean (fun r -> float_of_int r.pass.W.gate_violations) +. count "mapper.invalid" );
    ("wire.parse_s", "s", time (is "bench:wire.parse"));
    ("wire.render_s", "s", time (is "bench:wire.render"));
    ("wire.errors", "count", count "wire.errors");
    ("canon.of_dfg_s", "s", time (is "bench:canon.of_dfg"));
    ("canon.witness_s", "s", time (is "bench:canon.witness"));
    ("canon.calls", "count", mean (spans "bench:canon.of_dfg"));
    ("svc.submit_s", "s", time (is "bench:svc.submit"));
    ("svc.hits", "count", count "svc.hits");
    ("svc.iso_hits", "count", count "svc.iso_hits");
    ("svc.repair_hits", "count", count "svc.repair_hits");
    ("svc.misses", "count", count "svc.misses");
    ("svc.rejections", "count", count "svc.rejections");
    ("svc.demotions", "count", count "svc.demotions");
    ("svc.evictions", "count", count "svc.evictions");
    ("svc.hit_ratio", "ratio", div (count "svc.hits" +. count "svc.iso_hits") requests);
    ("svc.hit_p50_us", "us", path_q 0.5 1e6 (( = ) W.Hit));
    ("svc.hit_p90_us", "us", path_q 0.9 1e6 (( = ) W.Hit));
    ("svc.repair_p50_ms", "ms", path_q 0.5 1e3 (( = ) W.Repair));
    ("svc.miss_p50_ms", "ms", if requests > 0.0 then path_q 0.5 1e3 (( = ) W.Compile) else 0.0);
    ("repair.s", "s", time (pre "repair:"));
    ("repair.escalations", "count", count "repair.escalations");
    ("repair.rerouted", "count", count "repair.rerouted");
    ("repair.displaced", "count", count "repair.displaced");
  ]
  @ List.map
      (fun rung -> ("repair.rung." ^ rung, "count", count ("repair.rung." ^ rung)))
      [ "untouched"; "route-only"; "re-place"; "ii-bump"; "fallback" ]
  @ [
      ("contexts.encode_s", "s", time (is "bench:contexts"));
      ("sim.run_s", "s", time (fun s -> s = "sim:run" || s = "bench:sim"));
      ("sim.cycles", "count", count "sim.cycles");
      ("sim.route_instances", "count", count "sim.route_instances");
      ("eval.reference_s", "s", time (is "bench:eval"));
      ("supervise.ok", "count", count "supervise.ok");
      ("supervise.retries", "count", count "supervise.retries");
      ("gc.minor_mb", "MB", word_mb minor_words /. float_of_int (List.length untraced));
      ("gc.major_collections", "count", float_of_int majors /. float_of_int (List.length untraced));
      ("gc.top_heap_mb", "MB", word_mb (float_of_int (Gc.quick_stat ()).Gc.top_heap_words));
      ("trace.overhead_pct", "%", 100.0 *. ((throughput untraced /. throughput traced) -. 1.0));
      ("ii_sum", "count", count "ii_sum");
    ]

(* ------------------------------------------------------------------ *)
(* report                                                              *)
(* ------------------------------------------------------------------ *)

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
          metrics))

let print_table rows =
  List.iter
    (fun (name, unit, v, note) -> Printf.printf "  %-24s %16.6g %-6s %s\n" name v unit note)
    rows

let fingerprint_line (r : run) =
  let traced =
    if Ctx.enabled r.obs then
      List.map
        (fun k -> (k, Metrics.get (Ctx.metrics r.obs) k))
        [ "sat.conflicts"; "sat.propagations"; "constructive.attempts"; "pathfinder.iterations" ]
    else []
  in
  String.concat " "
    (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (r.pass.W.fingerprint @ traced))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " heuristic-flow | exact-sat | serve-stream");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " measuring time per run");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let make =
    match List.assoc_opt !workload W.all with
    | Some make when !trace = 0 || !trace = 1 -> make
    | _ ->
        Arg.usage spec usage;
        exit 2
  in
  let traced_run = !trace = 1 in
  let setup_s = setup_seconds make !seed in
  let t0 = Trace.now () in
  let untraced = ref [] and traced = ref [] in
  let minor_words = ref 0.0 and majors = ref 0 in
  let rec loop () =
    let r, minor, major = with_gc (fun () -> run_pass make !seed Ctx.off) in
    untraced := r :: !untraced;
    minor_words := !minor_words +. minor;
    majors := !majors + major;
    if traced_run then traced := run_pass make !seed (Ctx.create ()) :: !traced;
    (* stop where the run ends closest to S seconds *)
    let elapsed = Trace.now () -. t0 in
    let per_round = elapsed /. float_of_int (List.length !untraced) in
    if elapsed +. (per_round /. 2.0) < float_of_int !seconds then loop ()
  in
  loop ();
  let untraced = List.rev !untraced and traced = List.rev !traced in
  let runs = untraced @ traced in
  let attempted = List.fold_left (fun acc r -> acc + r.pass.W.attempted) 0 runs in
  let failed = List.fold_left (fun acc r -> acc + r.pass.W.attempted - answered r.pass) 0 runs in
  let first = List.hd runs in
  Printf.printf "%s seed %d: %d untraced + %d traced passes, %d attempted, %d failed\n" !workload
    !seed (List.length untraced) (List.length traced) attempted failed;
  List.iter
    (Printf.printf "MISMATCH %s %s\n" !workload)
    (List.sort_uniq compare (List.concat_map (fun r -> r.pass.W.failures) runs));
  (* determinism: every pass repeats the first one's exact work *)
  let deterministic =
    List.for_all (fun r -> r.pass.W.fingerprint = first.pass.W.fingerprint) runs
    &&
    match traced with
    | [] -> true
    | t :: rest ->
        let dump r = Metrics.dump (Ctx.metrics r.obs) in
        List.for_all (fun r -> dump r = dump t) rest
  in
  Printf.printf "fingerprint %s: %s\n" !workload
    (fingerprint_line (match traced with t :: _ -> t | [] -> first));
  if not deterministic then
    Printf.printf "MISMATCH %s: work counts differ between passes of one seed\n" !workload;
  let correct = failed = 0 && deterministic in
  if not traced_run then begin
    let compile = latencies untraced (( = ) W.Compile) and all = latencies untraced (fun _ -> true) in
    let kernels_per_s = throughput untraced in
    let metrics =
      [
        ("setup_s", "s", setup_s);
        ("kernels_per_s", "1/s", kernels_per_s);
        ("compile_p50_ms", "ms", 1e3 *. median compile);
        ("compile_p90_ms", "ms", 1e3 *. quantile 0.9 compile);
        ("answer_p50_us", "us", 1e6 *. median all);
        ("ii_ratio", "ratio", geomean (List.concat_map (fun r -> r.pass.W.ratios) untraced));
        ("peak_rss_mb", "MB", peak_rss_mb ());
      ]
    in
    let n l = Printf.sprintf "n=%d" (List.length l) in
    let hits = latencies untraced (( = ) W.Hit) and repairs = latencies untraced (( = ) W.Repair) in
    let serve = !workload = "serve-stream" in
    print_table
      (List.map
         (fun (name, unit, v) ->
           let note =
             match name with
             | "kernels_per_s" -> n untraced ^ " passes"
             | "compile_p50_ms" | "compile_p90_ms" -> n compile ^ if serve then " cold misses" else ""
             | "answer_p50_us" -> n all
             | _ -> ""
           in
           (name, unit, v, note))
         metrics
      @ [
          ( "fail_rate",
            "ratio",
            float_of_int failed /. float_of_int attempted,
            Printf.sprintf "%d/%d" failed attempted );
        ]
      @
      if serve then
        [
          ("requests_per_s", "1/s", kernels_per_s, "= kernels_per_s");
          ("hit_p50_us", "us", 1e6 *. median hits, n hits);
          ("hit_p90_us", "us", 1e6 *. quantile 0.9 hits, n hits);
          ("repair_p50_ms", "ms", 1e3 *. median repairs, n repairs);
          ("miss_p50_ms", "ms", 1e3 *. median compile, "= compile_p50_ms");
        ]
      else []);
    print_result ~correct ~attempted ~failed metrics
  end
  else begin
    let metrics = per_layer ~untraced ~traced ~minor_words:!minor_words ~majors:!majors in
    let wall = List.fold_left (fun acc r -> acc +. r.wall_s) 0.0 traced in
    Printf.printf "self time by layer, %d traced passes, %.3f s wall:\n" (List.length traced) wall;
    List.iter
      (fun (layer, s) -> Printf.printf "  %-28s %10.4f s %6.1f%%\n" layer s (100.0 *. s /. wall))
      (Layers.table (List.map (fun r -> (r.wall_s, Trace.spans (Ctx.trace r.obs))) traced));
    print_endline "per-layer metrics, per traced pass:";
    print_table (List.map (fun (name, unit, v) -> (name, unit, v, "")) metrics);
    print_result ~correct ~attempted ~failed metrics
  end
