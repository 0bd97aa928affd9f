(* Benchmark harness: regenerates every table and figure of the paper
   (Table I bibliographic + empirical companion, Figs. 1-4) and the
   ablation tables called out in DESIGN.md.

     dune exec bench/main.exe                    everything
     dune exec bench/main.exe -- t1b-only        just the Table I empirical sweep
     dune exec bench/main.exe -- repair-only     just the repair-ladder walk
     dune exec bench/main.exe -- sat-sweep-only  just the incremental-vs-cold
                                                 SAT II-sweep comparison
     dune exec bench/main.exe -- serve-only      just the serve-cache replay

   Any other argument, or more than one, prints the mode list to stderr
   and exits 2 without running or writing anything.

   Modes write their BENCH_*.json snapshot into the current directory;
   `ocgra report NEW --against COMMITTED` is the gate over them. *)

module Table = Ocgra_util.Table
module Kernels = Ocgra_workloads.Kernels
module Json = Ocgra_obs.Json

let args = List.tl (Array.to_list Sys.argv)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Every BENCH_*.json snapshot opens with the same stamp: a schema
   version plus the bench name, which is what lets `ocgra report`
   refuse to compare snapshots of different shape or vintage.  Bump
   the version whenever a snapshot changes shape. *)
let bench_schema = 2

let write_snapshot path name fields =
  Ocgra_obs.Export.write_file path
    (Json.render
       (Json.Obj (("schema", Json.int bench_schema) :: ("bench", Json.Str name) :: fields))
    ^ "\n")

let opt_int = function Some i -> Json.int i | None -> Json.Null
let opt_num = function Some x -> Json.Num x | None -> Json.Null
let counters_json cs = Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) cs)

(* ------------------------------------------------------------------ *)
(* T1a: Table I, bibliographic (generated from the corpus)            *)
(* ------------------------------------------------------------------ *)

let t1a () =
  section "Table I (bibliographic): binding and scheduling techniques, from the corpus";
  print_string (Ocgra_biblio.Table1.render ())

(* ------------------------------------------------------------------ *)
(* T1b: Table I, empirical companion                                   *)
(* ------------------------------------------------------------------ *)

(* The kernels x mappers sweep is embarrassingly parallel: every cell
   is an independent [Registry.table1_cell] with its own seed-derived
   RNG and metrics sink, on read-only shared problem inputs.  Cells are
   flattened into one task array and sharded across a domain pool
   (OCGRA_JOBS or all cores); results land at their cell index, so the
   printed table is identical to the sequential one.  Each cell's time
   is measured on the monotonic clock *inside* its task — never
   [Sys.time], which is CPU time and sums across workers — and a
   mapper's "time" column is the sum of its cells' mapping times
   (comparable across mappers regardless of interleaving). *)
let t1b () =
  section "Table I (empirical): one implemented representative per cell, common suite";
  let suite = Kernels.small_suite () in
  let headers =
    Array.of_list
      (("mapper" :: "cell" :: List.map (fun (k : Kernels.t) -> k.name) suite) @ [ "time" ])
  in
  let pairs =
    List.concat_map (fun m -> List.map (fun k -> (m, k)) suite) Ocgra_mappers.Registry.all
  in
  let tasks =
    Array.of_list
      (List.mapi
         (fun i (m, k) () ->
           let t0 = Ocgra_core.Deadline.now () in
           let c = Ocgra_mappers.Registry.table1_cell m k in
           (i, (Some c, Ocgra_core.Deadline.now () -. t0)))
         pairs)
  in
  let summary = Ocgra_par.Supervise.run tasks in
  (* quarantined cells degrade to an ERR entry (and a failed record)
     instead of killing the sweep; every other cell still prints *)
  let cells = Array.make (Array.length tasks) (None, 0.0) in
  Array.iter
    (function Ocgra_par.Supervise.Ok (i, r) -> cells.(i) <- r | Failed _ -> ())
    summary.outcomes;
  let failed =
    { Ocgra_mappers.Registry.ii = None; proven_optimal = false; attempts = 0; counters = [] }
  in
  (* machine-readable companion: one record per (mapper, kernel) cell
     with the cell's result, its mapping time and the engine counters
     its private metrics sink accumulated *)
  let records =
    List.mapi
      (fun i ((mapper : Ocgra_core.Mapper.t), (k : Kernels.t)) ->
        let c, dt = cells.(i) in
        Json.Obj
          ((("mapper", Json.Str mapper.name) :: ("kernel", Json.Str k.name)
           :: Ocgra_mappers.Registry.cell_json (Option.value c ~default:failed))
          @ [ ("map_time_s", Json.Num dt) ]))
      pairs
  in
  write_snapshot "BENCH_PR6.json" "table1-empirical" [ ("cells", Json.Arr records) ];
  let nk = List.length suite in
  let rows =
    List.mapi
      (fun mi (mapper : Ocgra_core.Mapper.t) ->
        let row = Array.sub cells (mi * nk) nk in
        let dt = Array.fold_left (fun acc (_, d) -> acc +. d) 0.0 row in
        let shown = function
          | None, _ -> "ERR"
          | Some { Ocgra_mappers.Registry.ii = Some ii; proven_optimal; _ }, _ ->
              Printf.sprintf "II=%d%s" ii (if proven_optimal then "*" else "")
          | Some _, _ -> "-"
        in
        let scope_tag =
          match mapper.scope with
          | Ocgra_core.Taxonomy.Spatial_mapping -> "S"
          | Ocgra_core.Taxonomy.Temporal_mapping -> "T"
          | Ocgra_core.Taxonomy.Binding_only -> "B"
          | Ocgra_core.Taxonomy.Scheduling_only -> "Sc"
        in
        let col =
          Ocgra_core.Taxonomy.column_to_string
            (Ocgra_core.Taxonomy.column_of_approach mapper.approach)
        in
        Array.of_list
          ((mapper.name :: Printf.sprintf "%s/%s" scope_tag col
            :: List.map shown (Array.to_list row))
          @ [ Printf.sprintf "%.1fs" dt ]))
      Ocgra_mappers.Registry.all
  in
  Table.print ~headers rows;
  print_endline
    "  *  = II proven optimal: success at the MII, or (sat only) every smaller II refuted";
  print_endline "  S(patial) rows run at II=1 on a diagonal-topology array; '-' = mapping failed";
  Printf.printf "  cells mapped on %d worker domain(s); time = summed per-cell mapping time\n"
    (Ocgra_par.Pool.default_workers ());
  (match summary.quarantined with
  | [] -> ()
  | q -> Printf.printf "  quarantined: %d cell(s) kept failing and print as ERR\n" (List.length q));
  print_endline "  machine-readable sweep written to BENCH_PR6.json"

(* ------------------------------------------------------------------ *)
(* PR7: repair ladder vs cold remap under escalating faults            *)
(* ------------------------------------------------------------------ *)

(* One survivor walk per kernel: escalating seeded permanent faults,
   each step salvaged by the certified repair ladder *and* cold-solved
   from scratch on the same mask, so every step prices the incremental
   path against the full remap it replaces.  The machine-readable
   snapshot (BENCH_PR7.json) carries per-step rung/II/time records and
   two medians: over all surviving steps, and over the incremental
   rungs only (untouched excluded — those are free by construction). *)

let write_repair_json path ~seed ~steps_per_kernel results =
  let step_records =
    List.concat_map
      (fun (kernel, rep) ->
        List.map
          (fun (s : Ocgra_sim.Reliability.survivor_step) -> (kernel, s))
          rep.Ocgra_sim.Reliability.steps)
      results
  in
  (* scratch/repair time of a certified step *)
  let speedup (s : Ocgra_sim.Reliability.survivor_step) =
    match s.rung with
    | Some r when s.repair_s > 0.0 -> Some (r, s.scratch_s /. s.repair_s)
    | _ -> None
  in
  let median_ratio pred =
    match
      List.filter_map
        (fun (_, s) -> match speedup s with Some (r, x) when pred r -> Some x | _ -> None)
        step_records
    with
    | [] -> None
    | l -> Some (Ocgra_util.Stats.median (Array.of_list l))
  in
  let med_all = median_ratio (fun _ -> true) in
  let med_incr =
    median_ratio (function
      | Ocgra_core.Mapper.Route_only | Ocgra_core.Mapper.Local_replace -> true
      | _ -> false)
  in
  let certified =
    List.length
      (List.filter
         (fun (_, (s : Ocgra_sim.Reliability.survivor_step)) -> s.rung <> None)
         step_records)
  in
  let step (kernel, (s : Ocgra_sim.Reliability.survivor_step)) =
    Json.Obj
      [
        ("kernel", Json.Str kernel);
        ("step", Json.int s.step);
        ( "rung",
          match s.rung with
          | Some r -> Json.Str (Ocgra_core.Mapper.rung_to_string r)
          | None -> Json.Null );
        ("ii", opt_int s.ii);
        ("replayed", Json.Bool s.replayed);
        ("repair_s", Json.Num s.repair_s);
        ("scratch_s", Json.Num s.scratch_s);
        ("speedup", opt_num (Option.map snd (speedup s)));
      ]
  in
  write_snapshot path "repair-ladder"
    [
      ("seed", Json.int seed);
      ("steps_per_kernel", Json.int steps_per_kernel);
      ("steps", Json.Arr (List.map step step_records));
      ( "summary",
        Json.Obj
          [
            ("kernels", Json.int (List.length results));
            ("steps", Json.int (List.length step_records));
            ("certified", Json.int certified);
            ("median_speedup_all", opt_num med_all);
            ("median_speedup_incremental", opt_num med_incr);
          ] );
    ];
  (med_all, med_incr)

let repair_bench () =
  section "Repair ladder: incremental salvage vs cold remap under escalating faults";
  let kernels =
    [
      Kernels.dot_product (); Kernels.saxpy (); Kernels.fir4 (); Kernels.sobel_row ();
      Kernels.absdiff ();
    ]
  in
  let chain = [ Ocgra_mappers.Registry.find "modulo-greedy" ] in
  let iters = 8 and steps = 10 and seed = 1 in
  let cgra = Ocgra_arch.Cgra.uniform ~rows:4 ~cols:4 () in
  let results =
    List.filter_map
      (fun (k : Kernels.t) ->
        let p = Ocgra_core.Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra ~max_ii:12 () in
        let o = Ocgra_core.Mapper.run (List.hd chain) ~seed:7 p in
        match o.mapping with
        | None -> None
        | Some m ->
            let mk_io () = Ocgra_sim.Machine.io_of_streams ~memory:k.memory (k.inputs iters) in
            let reference = Kernels.eval_reference k ~iters in
            let expected =
              List.map
                (fun name -> (name, Ocgra_dfg.Eval.output_stream reference name))
                k.outputs
            in
            let rep =
              Ocgra_sim.Reliability.run_survivor ~workers:1 ~chain p m ~mk_io ~iters ~expected
                ~steps ~seed
            in
            Some (k.name, rep))
      kernels
  in
  let rows =
    List.map
      (fun (name, (rep : Ocgra_sim.Reliability.survivor_report)) ->
        [|
          name;
          string_of_int rep.survived;
          (match rep.certified_failure with Some k -> string_of_int k | None -> "-");
          (match (rep.ii_curve, List.rev rep.ii_curve) with
          | (_, ii0) :: _, (_, iin) :: _ -> Printf.sprintf "%d -> %d" ii0 iin
          | _ -> "-");
          (match rep.repair_vs_scratch with Some x -> Printf.sprintf "%.1fx" x | None -> "-");
        |])
      results
  in
  Table.print
    ~headers:[| "kernel"; "survived"; "failure at"; "II curve"; "repair vs scratch" |]
    rows;
  let med_all, med_incr = write_repair_json "BENCH_PR7.json" ~seed ~steps_per_kernel:steps results in
  Printf.printf "  median speedup, all surviving steps: %s\n"
    (match med_all with Some x -> Printf.sprintf "%.1fx" x | None -> "-");
  Printf.printf "  median speedup, incremental rungs (route-only/re-place): %s\n"
    (match med_incr with Some x -> Printf.sprintf "%.1fx" x | None -> "-");
  print_endline "  machine-readable walk written to BENCH_PR7.json"

(* ------------------------------------------------------------------ *)
(* PR8: incremental assumption-based II sweep vs cold-per-II           *)
(* ------------------------------------------------------------------ *)

(* Kernels x grids whose optimal II exceeds MII, so the sweep visits
   more than one candidate and the shared solver instance actually
   carries learnt clauses, activities and phases across candidates.
   Both modes must reach the same final II; the incremental sweep is
   expected to spend strictly fewer conflicts (conflict counts are
   deterministic; wall times vary with machine load).  Both sweeps run
   raw from MII, so the solver is still priced on every refutation;
   [presolve_ii] records where the registered mappers' structural
   presolve would start the sweep instead. *)
let sat_sweep_cases =
  [ ("running-max", 2); ("absdiff", 2); ("mix-round", 2); ("matvec2", 3) ]

let sat_sweep_seed = 11
let sat_sweep_max_ii = 8

type sat_sweep_run = {
  ss_ii : int option;
  ss_attempts : int;
  ss_conflicts : int;
  ss_decisions : int;
  ss_propagations : int;
  ss_time_s : float;
}

let sat_sweep_run ~incremental (k : Kernels.t) grid =
  let cgra = Ocgra_arch.Cgra.uniform ~rows:grid ~cols:grid () in
  let p =
    Ocgra_core.Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra ~max_ii:sat_sweep_max_ii ()
  in
  let obs = Ocgra_obs.Ctx.create () in
  let rng = Ocgra_util.Rng.create sat_sweep_seed in
  let t0 = Ocgra_core.Deadline.now () in
  let m, attempts, _, _ = Ocgra_mappers.Sat_temporal.map ~incremental ~obs p rng in
  let dt = Ocgra_core.Deadline.now () -. t0 in
  (match m with
  | Some m when Ocgra_core.Check.validate p m <> [] ->
      invalid_arg (Printf.sprintf "sat sweep: invalid mapping on %s" k.name)
  | _ -> ());
  let mt = Ocgra_obs.Ctx.metrics obs in
  let get = Ocgra_obs.Metrics.get mt in
  {
    ss_ii = Option.map (fun (m : Ocgra_core.Mapping.t) -> m.ii) m;
    ss_attempts = attempts;
    ss_conflicts = get "sat.conflicts";
    ss_decisions = get "sat.decisions";
    ss_propagations = get "sat.propagations";
    ss_time_s = dt;
  }

let sat_sweep_run_json r =
  Json.Obj
    [
      ("ii", opt_int r.ss_ii);
      ("attempts", Json.int r.ss_attempts);
      ("conflicts", Json.int r.ss_conflicts);
      ("decisions", Json.int r.ss_decisions);
      ("propagations", Json.int r.ss_propagations);
      ("time_s", Json.Num r.ss_time_s);
    ]

let write_sat_sweep_json path rows (tc : sat_sweep_run) (ti : sat_sweep_run) =
  let kernel (kernel, grid, mii, presolve_ii, cold, inc) =
    Json.Obj
      [
        ("kernel", Json.Str kernel);
        ("grid", Json.Str (Printf.sprintf "%dx%d" grid grid));
        ("mii", Json.int mii);
        ("presolve_ii", Json.int presolve_ii);
        ("cold", sat_sweep_run_json cold);
        ("incremental", sat_sweep_run_json inc);
        ("same_ii", Json.Bool (cold.ss_ii = inc.ss_ii));
        ("conflicts_reduced", Json.Bool (inc.ss_conflicts < cold.ss_conflicts));
        ("time_reduced", Json.Bool (inc.ss_time_s < cold.ss_time_s));
      ]
  in
  write_snapshot path "sat-incremental-sweep"
    [
      ("seed", Json.int sat_sweep_seed);
      ("max_ii", Json.int sat_sweep_max_ii);
      ("kernels", Json.Arr (List.map kernel rows));
      ( "totals",
        Json.Obj
          [
            ("cold", sat_sweep_run_json tc);
            ("incremental", sat_sweep_run_json ti);
            ("conflicts_reduced", Json.Bool (ti.ss_conflicts < tc.ss_conflicts));
            ("time_reduced", Json.Bool (ti.ss_time_s < tc.ss_time_s));
          ] );
    ]

let sat_sweep_bench () =
  section "Incremental SAT II sweep: one shared solver vs cold per candidate II";
  let rows =
    List.map
      (fun (name, grid) ->
        let k = Kernels.find name in
        let cgra = Ocgra_arch.Cgra.uniform ~rows:grid ~cols:grid () in
        let mii = Ocgra_core.Mii.mii k.dfg cgra in
        let presolve_ii, _ =
          Ocgra_core.Presolve.first_open
            (Ocgra_core.Problem.temporal ~dfg:k.dfg ~cgra ~max_ii:sat_sweep_max_ii ())
            ~from:(max 1 mii) ~upto:sat_sweep_max_ii
        in
        let cold = sat_sweep_run ~incremental:false k grid in
        let inc = sat_sweep_run ~incremental:true k grid in
        (name, grid, mii, presolve_ii, cold, inc))
      sat_sweep_cases
  in
  let total runs =
    List.fold_left
      (fun acc r ->
        {
          acc with
          ss_conflicts = acc.ss_conflicts + r.ss_conflicts;
          ss_decisions = acc.ss_decisions + r.ss_decisions;
          ss_propagations = acc.ss_propagations + r.ss_propagations;
          ss_time_s = acc.ss_time_s +. r.ss_time_s;
          ss_attempts = acc.ss_attempts + r.ss_attempts;
        })
      { ss_ii = None; ss_attempts = 0; ss_conflicts = 0; ss_decisions = 0;
        ss_propagations = 0; ss_time_s = 0.0 }
      runs
  in
  let tc = total (List.map (fun (_, _, _, _, c, _) -> c) rows) in
  let ti = total (List.map (fun (_, _, _, _, _, i) -> i) rows) in
  Table.print
    ~headers:
      [|
        "kernel"; "grid"; "mii"; "presolve II"; "II"; "sweeps"; "cold confl"; "incr confl";
        "cold s"; "incr s";
      |]
    (List.map
       (fun (name, grid, mii, presolve_ii, (c : sat_sweep_run), (i : sat_sweep_run)) ->
         [|
           name;
           Printf.sprintf "%dx%d" grid grid;
           string_of_int mii;
           string_of_int presolve_ii;
           (match i.ss_ii with Some ii -> string_of_int ii | None -> "-");
           string_of_int i.ss_attempts;
           string_of_int c.ss_conflicts;
           string_of_int i.ss_conflicts;
           Printf.sprintf "%.3f" c.ss_time_s;
           Printf.sprintf "%.3f" i.ss_time_s;
         |])
       rows);
  Printf.printf "  totals: conflicts %d -> %d, wall %.3fs -> %.3fs\n" tc.ss_conflicts
    ti.ss_conflicts tc.ss_time_s ti.ss_time_s;
  write_sat_sweep_json "BENCH_PR8.json" rows tc ti;
  print_endline "  machine-readable sweep written to BENCH_PR8.json"

(* ------------------------------------------------------------------ *)
(* F1: architecture-class comparison                                   *)
(* ------------------------------------------------------------------ *)

let f1 () =
  section "Fig. 1 (reproduction): architecture classes on the same kernels";
  let classes =
    [
      ("CPU-like (1 PE, temporal)", Ocgra_arch.Cgra.single_pe (), false);
      ("CGRA 4x4 (temporal)", Ocgra_arch.Cgra.uniform ~rows:4 ~cols:4 (), false);
      ( "FPGA-like 8x8 (spatial)",
        Ocgra_arch.Cgra.uniform ~topology:Ocgra_arch.Topology.Diagonal ~rows:8 ~cols:8 (),
        true );
    ]
  in
  let suite = Kernels.full_suite () in
  let iters = 16 in
  let rows =
    List.map
      (fun (label, cgra, spatial) ->
        let npe = Ocgra_arch.Cgra.pe_count cgra in
        let mapped = ref 0 and cycles = ref 0 and energy = ref 0.0 in
        List.iter
          (fun (k : Kernels.t) ->
            let p =
              if spatial then Ocgra_core.Problem.spatial ~init:k.init ~dfg:k.dfg ~cgra ()
              else Ocgra_core.Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra ~max_ii:40 ()
            in
            let rng = Ocgra_util.Rng.create 23 in
            match Ocgra_mappers.Constructive.map ~restarts:12 p rng with
            | Some m, _, _ ->
                incr mapped;
                let io = Ocgra_sim.Machine.io_of_streams ~memory:k.memory (k.inputs iters) in
                let result = Ocgra_sim.Machine.run p m io ~iters in
                cycles := !cycles + result.Ocgra_sim.Machine.stats.cycles;
                energy :=
                  !energy
                  +. Ocgra_sim.Energy.of_mapping_run k.dfg ~npe ~iters
                       result.Ocgra_sim.Machine.stats
            | None, _, _ -> ())
          suite;
        let flexibility = Printf.sprintf "%d/%d kernels" !mapped (List.length suite) in
        let performance =
          if !mapped = 0 then "-"
          else
            Printf.sprintf "%.3f iter/cycle"
              (float_of_int (!mapped * iters) /. float_of_int !cycles)
        in
        let efficiency =
          if !mapped = 0 then "-"
          else Printf.sprintf "%.4f iter/energy" (float_of_int (!mapped * iters) /. !energy)
        in
        [| label; flexibility; performance; efficiency |])
      classes
  in
  Table.print
    ~headers:[| "architecture"; "flexibility"; "performance"; "energy efficiency" |]
    rows;
  print_endline
    "  expected shape (Fig. 1): the CGRA sits between the sequential processor\n\
    \  (maps everything, lowest throughput) and the spatial fabric (fast where it\n\
    \  maps at all, maps the fewest kernels)"

(* ------------------------------------------------------------------ *)
(* F2: the CGRA anatomy and its configuration register                 *)
(* ------------------------------------------------------------------ *)

let f2 () =
  section "Fig. 2 (reproduction): a simple CGRA and one configuration register";
  let cgra = Ocgra_arch.Cgra.adres_like ~rows:4 ~cols:4 () in
  print_string (Ocgra_arch.Cgra.describe cgra);
  let k = Kernels.dot_product () in
  let p = Ocgra_core.Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra () in
  let rng = Ocgra_util.Rng.create 42 in
  match Ocgra_mappers.Constructive.map p rng with
  | Some m, _, _ ->
      let build = Ocgra_core.Contexts.of_mapping p m in
      print_string (Ocgra_core.Contexts.to_string p build);
      let words = Ocgra_core.Contexts.encode build in
      Printf.printf "context memory: %d contexts x %d PEs x 53-bit words; word[0][0] = 0x%Lx\n"
        (Array.length words)
        (Array.length words.(0))
        words.(0).(0)
  | None, _, _ -> print_endline "mapping failed"

(* ------------------------------------------------------------------ *)
(* F3: the compilation flow on the dot product                         *)
(* ------------------------------------------------------------------ *)

let f3 () =
  section "Fig. 3 (reproduction): compilation flow, dot product";
  let module P = Ocgra_dfg.Prog_ast in
  let program =
    [
      P.Assign ("sum", P.Int 0);
      P.For
        ( "i",
          P.Int 0,
          P.Var "size",
          [
            P.Assign
              ( "sum",
                P.Bin
                  ( Ocgra_dfg.Op.Add,
                    P.Var "sum",
                    P.Bin (Ocgra_dfg.Op.Mul, P.Read ("A", P.Var "i"), P.Read ("B", P.Var "i")) ) );
          ] );
      P.Emit ("sum", P.Var "sum");
    ]
  in
  let cdfg = Ocgra_dfg.Prog.to_cdfg program in
  print_string (Ocgra_dfg.Cdfg.to_string cdfg);
  let kernel = Kernels.dot_product () in
  let cgra = Ocgra_arch.Cgra.uniform ~rows:4 ~cols:4 () in
  let p = Ocgra_core.Problem.temporal ~init:kernel.init ~dfg:kernel.dfg ~cgra () in
  let rng = Ocgra_util.Rng.create 42 in
  match Ocgra_mappers.Constructive.map p rng with
  | Some m, _, _ ->
      Printf.printf "\nmodulo schedule of the loop body (II = %d):\n" m.Ocgra_core.Mapping.ii;
      print_string (Ocgra_core.Mapping.to_grid m kernel.dfg cgra)
  | None, _, _ -> print_endline "mapping failed"

(* ------------------------------------------------------------------ *)
(* F4: the timeline                                                    *)
(* ------------------------------------------------------------------ *)

let f4 () =
  section "Fig. 4 (reproduction): two decades of CGRA mapping";
  print_string (Ocgra_biblio.Timeline.render ())

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ab_ii_vs_size () =
  section "Ablation: achieved II vs array size (scalability, Section IV.B)";
  let kernels = [ Kernels.fir4 (); Kernels.butterfly (); Kernels.sobel_row () ] in
  let sizes = [ (2, 2); (3, 3); (4, 4); (5, 5); (6, 6) ] in
  let rows =
    List.map
      (fun (k : Kernels.t) ->
        Array.of_list
          (k.name
          :: List.map
               (fun (r, c) ->
                 let cgra = Ocgra_arch.Cgra.uniform ~rows:r ~cols:c () in
                 let p = Ocgra_core.Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra ~max_ii:24 () in
                 let rng = Ocgra_util.Rng.create 3 in
                 match Ocgra_mappers.Constructive.map ~restarts:12 p rng with
                 | Some m, _, _ ->
                     Printf.sprintf "II=%d (MII %d)" m.Ocgra_core.Mapping.ii
                       (Ocgra_core.Mii.mii k.dfg cgra)
                 | None, _, _ -> "-")
               sizes))
      kernels
  in
  let headers =
    Array.of_list ("kernel" :: List.map (fun (r, c) -> Printf.sprintf "%dx%d" r c) sizes)
  in
  Table.print ~headers rows

let ab_topology () =
  section "Ablation: interconnect topology (routing pressure)";
  let kernels = [ Kernels.fir4 (); Kernels.butterfly (); Kernels.absdiff () ] in
  let rows =
    List.map
      (fun (k : Kernels.t) ->
        Array.of_list
          (k.name
          :: List.map
               (fun topo ->
                 let cgra = Ocgra_arch.Cgra.uniform ~topology:topo ~rows:4 ~cols:4 () in
                 let p = Ocgra_core.Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra ~max_ii:16 () in
                 let rng = Ocgra_util.Rng.create 3 in
                 match Ocgra_mappers.Constructive.map ~restarts:10 p rng with
                 | Some m, _, _ -> Printf.sprintf "II=%d" m.Ocgra_core.Mapping.ii
                 | None, _, _ -> "-")
               Ocgra_arch.Topology.all))
      kernels
  in
  let headers =
    Array.of_list ("kernel" :: List.map Ocgra_arch.Topology.to_string Ocgra_arch.Topology.all)
  in
  Table.print ~headers rows

let ab_predication () =
  section "Ablation: if-then-else mapping schemes (Section III.B.1)";
  let module P = Ocgra_dfg.Prog_ast in
  let ites =
    [
      ( "clip",
        {
          Ocgra_cf.Predication.cond = P.Bin (Ocgra_dfg.Op.Lt, P.Int 127, P.Var "x");
          then_branch = [ ("y", P.Int 127) ];
          else_branch =
            [ ("y", P.Bin (Ocgra_dfg.Op.Add, P.Bin (Ocgra_dfg.Op.Mul, P.Var "x", P.Int 3), P.Int 1)) ];
        } );
      ( "abs-sign",
        {
          Ocgra_cf.Predication.cond = P.Bin (Ocgra_dfg.Op.Lt, P.Var "x", P.Int 0);
          then_branch = [ ("y", P.Neg (P.Var "x")); ("s", P.Int (-1)) ];
          else_branch = [ ("y", P.Var "x"); ("s", P.Int 1) ];
        } );
    ]
  in
  let cgra = Ocgra_arch.Cgra.uniform ~rows:4 ~cols:4 () in
  List.iter
    (fun (name, ite) ->
      Printf.printf "\nkernel %s:\n" name;
      let rows =
        List.map
          (fun (scheme, dfg, ops, depth) ->
            let p = Ocgra_core.Problem.temporal ~dfg ~cgra () in
            let rng = Ocgra_util.Rng.create 5 in
            let mapped =
              match Ocgra_mappers.Constructive.map p rng with
              | Some m, _, _ -> Printf.sprintf "II=%d" m.Ocgra_core.Mapping.ii
              | None, _, _ -> "-"
            in
            [|
              Ocgra_cf.Predication.scheme_to_string scheme; string_of_int ops;
              string_of_int depth; mapped;
            |])
          (Ocgra_cf.Predication.compare_schemes ite)
      in
      Table.print ~headers:[| "scheme"; "ops"; "critical path"; "mapped" |] rows)
    ites

let ab_banks () =
  section "Ablation: memory banks vs stall cycles (Section III.C)";
  let accesses =
    [
      (0, { Ocgra_mem.Bank.array_base = 0; stride = 1; offset = 0 });
      (0, { Ocgra_mem.Bank.array_base = 64; stride = 1; offset = 0 });
      (0, { Ocgra_mem.Bank.array_base = 0; stride = 1; offset = 1 });
      (1, { Ocgra_mem.Bank.array_base = 128; stride = 1; offset = 0 });
      (1, { Ocgra_mem.Bank.array_base = 64; stride = 2; offset = 0 });
    ]
  in
  let rows =
    List.map
      (fun (banks, conflicts) -> [| string_of_int banks; string_of_int conflicts |])
      (Ocgra_mem.Bank.conflicts_by_banks ~bank_counts:[ 1; 2; 4; 8; 16 ] ~ii:2 ~iters:64 accesses)
  in
  Table.print ~headers:[| "banks"; "stall cycles / 64 iters" |] rows

let ab_exact_scaling () =
  section "Ablation: exact-method runtime vs kernel size (the compilation-time challenge)";
  let cgra = Ocgra_arch.Cgra.uniform ~rows:3 ~cols:3 () in
  let sizes = [ 4; 6; 8; 10 ] in
  let rng0 = Ocgra_util.Rng.create 99 in
  let dfgs =
    List.map
      (fun n ->
        let params =
          { Ocgra_workloads.Random_dfg.default with nodes = n; layers = max 2 (n / 3) }
        in
        (n, fst (Ocgra_workloads.Random_dfg.generate ~params rng0)))
      sizes
  in
  (* budgeted versions of the exact mappers: within the budget they
     answer exactly; past it they give up, which is the honest shape
     of the compilation-time story *)
  let mappers =
    [
      ( "sat (40k conflicts/II)",
        fun p rng ->
          let m, _, _, _ = Ocgra_mappers.Sat_temporal.map ~max_conflicts:40_000 p rng in
          m );
      ( "cp (8k failures/II)",
        fun p rng ->
          let m, _, _ = Ocgra_mappers.Cp_temporal.map ~max_failures:8_000 ~routing_retries:3 p rng in
          m );
      ( "branch-and-bound",
        fun p _ -> (Ocgra_core.Mapper.run ~seed:3 Ocgra_mappers.Bb_temporal.mapper p).mapping );
      ( "modulo-greedy",
        fun p rng ->
          let m, _, _ = Ocgra_mappers.Constructive.map p rng in
          m );
    ]
  in
  let rows =
    List.map
      (fun (name, map) ->
        Array.of_list
          (name
          :: List.map
               (fun (_, dfg) ->
                 let p = Ocgra_core.Problem.temporal ~dfg ~cgra ~max_ii:8 () in
                 (* monotonic elapsed, not [Sys.time] CPU time: a
                    paging/blocked solver must show its real cost *)
                 let t0 = Ocgra_core.Deadline.now () in
                 let m = map p (Ocgra_util.Rng.create 3) in
                 let dt = Ocgra_core.Deadline.now () -. t0 in
                 match m with
                 | Some m -> Printf.sprintf "II=%d %.2fs" m.Ocgra_core.Mapping.ii dt
                 | None -> Printf.sprintf "- %.2fs" dt)
               dfgs))
      mappers
  in
  let headers =
    Array.of_list ("mapper" :: List.map (fun (n, _) -> Printf.sprintf "%d nodes" n) dfgs)
  in
  Table.print ~headers rows;
  print_endline "  expected shape: exact methods blow up with size; the heuristic stays flat"

let ab_hwloop () =
  section "Ablation: hardware loops vs host-managed control (Section III.B.2)";
  let model = Ocgra_cf.Hw_loop.default_overhead in
  let rows =
    List.concat_map
      (fun (ii, len) ->
        List.map
          (fun iters ->
            let host = Ocgra_cf.Hw_loop.host_managed_cycles model ~schedule_length:len ~iters in
            let hw = Ocgra_cf.Hw_loop.hw_loop_cycles model ~ii ~schedule_length:len ~iters in
            [|
              Printf.sprintf "II=%d len=%d" ii len;
              string_of_int iters;
              string_of_int host;
              string_of_int hw;
              Printf.sprintf "%.1fx" (float_of_int host /. float_of_int hw);
            |])
          [ 4; 16; 64; 256 ])
      [ (1, 4); (2, 6); (4, 10) ]
  in
  Table.print ~headers:[| "kernel"; "iters"; "host-managed"; "hw loop"; "speedup" |] rows

let ab_unroll () =
  section "Ablation: loop unrolling for throughput (the Fig. 4 'loop unrolling' era)";
  (* unrolling multiplies the work per initiation: effective throughput
     is u / II, until resource pressure raises the II *)
  let kernels = [ Kernels.dot_product (); Kernels.saxpy () ] in
  let factors = [ 1; 2; 4 ] in
  let rows =
    List.map
      (fun (k : Kernels.t) ->
        Array.of_list
          (k.name
          :: List.map
               (fun u ->
                 let dfg = Ocgra_dfg.Transform.unroll k.dfg u in
                 let cgra = Ocgra_arch.Cgra.uniform ~rows:4 ~cols:4 () in
                 let p = Ocgra_core.Problem.temporal ~dfg ~cgra ~max_ii:24 () in
                 let rng = Ocgra_util.Rng.create 13 in
                 match Ocgra_mappers.Constructive.map ~restarts:10 p rng with
                 | Some m, _, _ ->
                     Printf.sprintf "II=%d -> %.2f iters/cycle" m.Ocgra_core.Mapping.ii
                       (float_of_int u /. float_of_int m.Ocgra_core.Mapping.ii)
                 | None, _, _ -> "-")
               factors))
      kernels
  in
  let headers = Array.of_list ("kernel" :: List.map (fun u -> Printf.sprintf "unroll x%d" u) factors) in
  Table.print ~headers rows

let ab_nest () =
  section "Ablation: affine nest transformation before pipelining ([45])";
  let module Nest = Ocgra_cf.Nest in
  let nests =
    [
      ( "stencil {(1,0),(0,1)} lat 2",
        [ { Nest.d_outer = 1; d_inner = 0; latency = 2 }; { Nest.d_outer = 0; d_inner = 1; latency = 2 } ] );
      ("anti-diagonal {(1,-1)} lat 3", [ { Nest.d_outer = 1; d_inner = -1; latency = 3 } ]);
      ("inner recurrence {(0,2)} lat 4", [ { Nest.d_outer = 0; d_inner = 2; latency = 4 } ]);
      ( "coupled {(0,1),(1,-2)} lat 2",
        [ { Nest.d_outer = 0; d_inner = 1; latency = 2 }; { Nest.d_outer = 1; d_inner = -2; latency = 2 } ] );
    ]
  in
  let rows =
    List.map
      (fun (name, deps) ->
        let identity =
          if Nest.legal Nest.Identity deps then string_of_int (Nest.inner_rec_mii Nest.Identity deps)
          else "illegal"
        in
        match Nest.best deps with
        | Some (mii, t) ->
            [| name; identity; Nest.transform_to_string t; string_of_int mii |]
        | None -> [| name; identity; "-"; "-" |])
      nests
  in
  Table.print
    ~headers:[| "nest dependences"; "inner RecMII (identity)"; "best transform"; "inner RecMII (best)" |]
    rows

let ab_regalloc () =
  section "Ablation: rotating vs unified register file need ([29] vs [25])";
  let cgra = Ocgra_arch.Cgra.uniform ~rows:4 ~cols:4 ~rf_size:8 () in
  let rows =
    List.filter_map
      (fun (k : Kernels.t) ->
        let p = Ocgra_core.Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra ~max_ii:16 () in
        let rng = Ocgra_util.Rng.create 7 in
        match Ocgra_mappers.Constructive.map p rng with
        | Some m, _, _ ->
            let s = Ocgra_mem.Regalloc.summarize m ~npe:16 in
            Some
              [|
                k.name;
                string_of_int m.Ocgra_core.Mapping.ii;
                string_of_int s.total_holds;
                string_of_int s.max_rotating;
                string_of_int s.max_unified;
              |]
        | None, _, _ -> None)
      (Kernels.full_suite ())
  in
  Table.print
    ~headers:
      [| "kernel"; "II"; "values in RFs"; "rotating regs (max/PE)"; "unified regs (max/PE)" |]
    rows

(* ------------------------------------------------------------------ *)
(* Serve: mapping-as-a-service, canonical-form cache                   *)
(* ------------------------------------------------------------------ *)

(* The request stream is generated (seed-deterministically), committed
   as SERVE_STREAM.jsonl, and replayed through the same wire codec the
   daemon uses.  Mix: one cold request per kernel, exact duplicates,
   isomorphic renamings (random node permutations via [Canon.permute]),
   three kernels whose fault mask grows in nested seeded steps (repair
   territory), and one off-architecture request (a genuinely new cache
   class).  Well over 30% of the stream is duplicate-or-isomorphic, so
   the cache-hit path dominates and its latency separates cleanly from
   the cold maps. *)

let serve_seed = 5
let serve_chunk = 8
let serve_kernels = [ "dot-product"; "saxpy"; "fir4"; "absdiff"; "running-max"; "horner" ]
let serve_grow_kernels = [ "saxpy"; "fir4"; "absdiff" ]

let serve_stream () =
  let module W = Ocgra_svc.Wire in
  let rng = Ocgra_util.Rng.create serve_seed in
  let base name = { W.default_req with W.payload = W.Kernel name } in
  let colds = List.map (fun k -> { (base k) with W.id = "cold-" ^ k }) serve_kernels in
  (* two nested-mask growth families on disjoint kernel sets (one
     entry per class — mixing mask shapes on one kernel would make the
     steps incomparable and force cold maps): a seeded family whose
     mask grows by re-drawing more faults from the same stream, and an
     explicit family that knocks out named PEs/links, covering both
     mask forms of the wire codec *)
  let grow kernels step faults n =
    List.map
      (fun k ->
        {
          (base k) with
          W.id = Printf.sprintf "%s-%s" step k;
          faults;
          n_faults = n;
          fault_seed = 3;
        })
      kernels
  in
  let seeded n = grow serve_grow_kernels (Printf.sprintf "seed%d" n) [] n in
  let expl = grow [ "dot-product"; "running-max"; "horner" ] in
  let m1 = [ Ocgra_arch.Fault.Pe_down 1 ] in
  let m2 = Ocgra_arch.Fault.Pe_down 2 :: m1 in
  let m3 = Ocgra_arch.Fault.Link_down (9, 10) :: m2 in
  let arch = [ { (base "dot-product") with W.id = "arch-5x5"; rows = 5; cols = 5 } ] in
  (* duplicates and renamings, two of each per kernel, interleaved *)
  let warm =
    List.concat_map
      (fun k ->
        let dfg = (Ocgra_workloads.Kernels.find k).Ocgra_workloads.Kernels.dfg in
        List.concat_map
          (fun i ->
            let perm =
              Ocgra_util.Rng.shuffle rng (Array.init (Ocgra_dfg.Dfg.node_count dfg) Fun.id)
            in
            [
              { (base k) with W.id = Printf.sprintf "dup-%s-%d" k i };
              {
                W.default_req with
                W.id = Printf.sprintf "iso-%s-%d" k i;
                payload = W.Inline (Ocgra_svc.Canon.permute dfg perm);
              };
            ])
          [ 1; 2 ])
      serve_kernels
  in
  colds @ seeded 2 @ expl "mask1" m1 0 @ arch @ warm @ seeded 4 @ expl "mask2" m2 0
  @ seeded 6 @ expl "mask3" m3 0

let serve_bench () =
  section "Serve: canonical-form mapping cache + fault-driven incremental remap";
  let module W = Ocgra_svc.Wire in
  let module Svc = Ocgra_svc.Svc in
  let stream = serve_stream () in
  Ocgra_obs.Export.write_file "SERVE_STREAM.jsonl"
    (String.concat "" (List.map (fun r -> W.req_to_json r ^ "\n") stream));
  (* replay through the wire codec — the daemon's exact input path *)
  let lookup name =
    match Ocgra_workloads.Kernels.find name with
    | k -> Ok k.Ocgra_workloads.Kernels.dfg
    | exception Invalid_argument m -> Error m
  in
  let reqs =
    List.map
      (fun line ->
        match W.parse_req line with
        | Ok r -> (
            match W.to_request ~lookup r with
            | Ok req -> req
            | Error m -> failwith ("serve bench: " ^ m))
        | Error m -> failwith ("serve bench: " ^ m))
      (Ocgra_par.Journal.read_lines "SERVE_STREAM.jsonl")
  in
  let svc =
    Svc.create
      {
        Svc.default_config with
        Svc.capacity = 64;
        chain = [ Ocgra_mappers.Registry.find "modulo-greedy" ];
        workers = Ocgra_par.Pool.default_workers ();
        seed = 7;
      }
  in
  let t0 = Ocgra_core.Deadline.now () in
  let rec take k acc = function
    | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let rec drain acc = function
    | [] -> List.rev acc
    | reqs ->
        let chunk, rest = take serve_chunk [] reqs in
        drain (List.rev_append (Svc.submit_batch svc chunk) acc) rest
  in
  let responses = drain [] reqs in
  let wall = Ocgra_core.Deadline.now () -. t0 in
  let lat pred = List.filter_map (fun (r : Svc.response) -> if pred r.Svc.served then Some r.Svc.elapsed_s else None) responses in
  let hits = lat (function Svc.Hit | Svc.Iso_hit -> true | _ -> false) in
  let isos = lat (function Svc.Iso_hit -> true | _ -> false) in
  let repairs = lat (function Svc.Repair_hit _ -> true | _ -> false) in
  let colds = lat (function Svc.Miss -> true | _ -> false) in
  let med l = if l = [] then 0.0 else Ocgra_util.Stats.median (Array.of_list l) in
  let p90 l =
    match List.sort compare l with
    | [] -> 0.0
    | s -> List.nth s (min (List.length s - 1) (List.length s * 9 / 10))
  in
  let rungs =
    List.filter_map
      (fun (r : Svc.response) ->
        match r.Svc.served with
        | Svc.Repair_hit rung -> Some (Ocgra_core.Mapper.rung_to_string rung)
        | _ -> None)
      responses
  in
  let s = Svc.stats svc in
  let speedup = if med hits > 0.0 then med colds /. med hits else 0.0 in
  Printf.printf "  %-28s %8s %14s %14s\n" "path" "count" "median" "p90";
  let row name l =
    Printf.printf "  %-28s %8d %11.1f us %11.1f us\n" name (List.length l)
      (med l *. 1e6) (p90 l *. 1e6)
  in
  row "hit (exact + isomorphic)" hits;
  row "  of which isomorphic" isos;
  row "repair-hit (mask grew)" repairs;
  row "cold map (miss)" colds;
  Printf.printf "  hit vs cold speedup: %.0fx%s\n" speedup
    (if speedup >= 100.0 then "  (>= 100x)" else "  (BELOW 100x)");
  Printf.printf
    "  totals: %d requests, %d hits + %d iso + %d repair / %d cold, %d rejected, %d coalesced, \
     %d demotions, cache %d entries\n"
    s.Svc.requests s.Svc.hits s.Svc.iso_hits s.Svc.repair_hits s.Svc.misses s.Svc.rejections
    s.Svc.coalesced s.Svc.demotions s.Svc.entries;
  let rung_counts =
    List.map
      (fun r -> (r, Json.int (List.length (List.filter (( = ) r) rungs))))
      (List.sort_uniq compare rungs)
  in
  write_snapshot "BENCH_PR10.json" "serve"
    [
      ("seed", Json.int serve_seed);
      ("chunk", Json.int serve_chunk);
      ("requests", Json.int s.Svc.requests);
      ( "counts",
        counters_json
          [
            ("hits", s.Svc.hits);
            ("iso_hits", s.Svc.iso_hits);
            ("repair_hits", s.Svc.repair_hits);
            ("misses", s.Svc.misses);
            ("rejections", s.Svc.rejections);
            ("coalesced", s.Svc.coalesced);
            ("demotions", s.Svc.demotions);
            ("entries", s.Svc.entries);
            ("evictions", s.Svc.evictions);
          ] );
      ("rungs", Json.Obj rung_counts);
      ( "latency",
        Json.Obj
          [
            ("hit_median_s", Json.Num (med hits));
            ("hit_p90_s", Json.Num (p90 hits));
            ("iso_hit_median_s", Json.Num (med isos));
            ("repair_median_s", Json.Num (med repairs));
            ("cold_median_s", Json.Num (med colds));
            ("wall_s", Json.Num wall);
          ] );
      ("speedup_hit_vs_cold", Json.Num speedup);
      ("speedup_ge_100x", Json.Bool (speedup >= 100.0));
    ];
  print_endline "  wrote SERVE_STREAM.jsonl + BENCH_PR10.json"

let run_everything () =
  t1a ();
  f4 ();
  f2 ();
  f3 ();
  ab_hwloop ();
  ab_banks ();
  ab_predication ();
  ab_nest ();
  ab_unroll ();
  ab_regalloc ();
  ab_topology ();
  ab_ii_vs_size ();
  f1 ();
  t1b ();
  repair_bench ();
  sat_sweep_bench ();
  serve_bench ();
  ab_exact_scaling ();
  print_endline "\nAll artifacts regenerated."

(* mode argument, what it runs, what it prints when done; no mode
   argument runs everything *)
let modes =
  [
    ("t1b-only", t1b, "Empirical sweep regenerated.");
    ("repair-only", repair_bench, "Repair-ladder walk regenerated.");
    ("sat-sweep-only", sat_sweep_bench, "SAT incremental-sweep comparison regenerated.");
    ("serve-only", serve_bench, "Serve-cache stream replay regenerated.");
  ]

(* Anything but no argument or one mode name is refused before any
   snapshot is written: a stray argument must not regenerate (and so
   overwrite) every BENCH_*.json in the current directory. *)
let usage () =
  prerr_endline ("usage: main.exe [" ^ String.concat " | " (List.map (fun (m, _, _) -> m) modes) ^ "]");
  prerr_endline "  with no argument, every table, figure and snapshot is regenerated";
  exit 2

let () =
  match args with
  | [] -> run_everything ()
  | [ arg ] -> (
      match List.find_opt (fun (m, _, _) -> m = arg) modes with
      | Some (_, run, done_msg) ->
          run ();
          print_endline ("\n" ^ done_msg)
      | None -> usage ())
  | _ -> usage ()
