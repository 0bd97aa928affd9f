(* Mapper tests: the central framework invariant — every mapping any
   registered mapper produces passes the independent checker — the
   Table I and SAT-sweep search paths pinned to the committed
   BENCH_PR6.json and BENCH_PR8.json, plus per-technique behaviour
   checks.  Slow exact mappers run on small kernels only. *)

open Ocgra_core
module Kernels = Ocgra_workloads.Kernels
module Rng = Ocgra_util.Rng

let checkb = Alcotest.check Alcotest.bool

let cgra44 = Ocgra_arch.Cgra.uniform ~rows:4 ~cols:4 ()
let cgra_diag = Ocgra_arch.Cgra.uniform ~topology:Ocgra_arch.Topology.Diagonal ~rows:4 ~cols:4 ()

(* A committed snapshot, which the test's dune deps copy next to the
   test directory. *)
let committed name =
  let root = Filename.dirname (Filename.dirname Sys.executable_name) in
  let text = In_channel.with_open_bin (Filename.concat root name) In_channel.input_all in
  match Ocgra_obs.Json.parse text with Ok j -> j | Error e -> Alcotest.failf "%s: %s" name e

let member path j =
  match List.fold_left (fun j k -> Option.bind j (Ocgra_obs.Json.member k)) (Some j) path with
  | Some v -> v
  | None -> Alcotest.failf "missing %s" (String.concat "." path)

let str path j = Option.get (Ocgra_obs.Json.to_string (member path j))
let int path j = Option.get (Ocgra_obs.Json.to_int (member path j))
let elements path j = Option.value ~default:[] (Ocgra_obs.Json.to_list (member path j))

let is_ilp (m : Mapper.t) = String.starts_with ~prefix:"ilp-" m.name

(* The Table I empirical companion: every pair of [Registry.all] x the
   small suite through [Registry.table1_cell], the definition `bench
   t1b-only` writes BENCH_PR6.json with.  The ilp-* mappers stop on
   wall-clock bounds, so their cells move between identical runs; they
   run on dot-product and horner only, for the invariants every cell
   keeps.  Computed once for the two tests below. *)
let table1_sweep =
  lazy
    (List.concat_map
       (fun (m : Mapper.t) ->
         List.filter_map
           (fun (k : Kernels.t) ->
             if is_ilp m && not (List.mem k.name [ "dot-product"; "horner" ]) then None
             else Some (m, k, Ocgra_mappers.Registry.table1_cell m k))
           (Kernels.small_suite ()))
       Ocgra_mappers.Registry.all)

(* THE invariant: raw mapper output always passes the independent
   validator ([Mapper.run] counts [mapper.invalid] when it demotes
   one); failing to map is allowed, lying is not.  And only sat
   refutes candidate IIs, so everyone else proves optimality only at
   the MII. *)
let test_every_mapper_output_validates () =
  List.iter
    (fun ((mapper : Mapper.t), (k : Kernels.t), (c : Ocgra_mappers.Registry.cell)) ->
      let label = Printf.sprintf "%s on %s" mapper.name k.name in
      checkb (label ^ " is valid") false (List.mem_assoc "mapper.invalid" c.counters);
      match c.ii with
      | Some ii when c.proven_optimal && mapper.name <> "sat" ->
          (* every Table I array is a healthy 4x4 of full PEs, and the
             MII does not depend on the topology *)
          Alcotest.(check int) (label ^ " proves only at the MII") (Mii.mii k.dfg cgra44) ii
      | _ -> ())
    (Lazy.force table1_sweep)

(* The committed cells are exactly Registry.all x the small suite, and
   each non-ilp one equals its rerun: II, proof flag, attempts and
   engine counters.  Any change to a mapper's RNG draws, restart
   counts, sweep or engine work moves a cell and must re-commit the
   snapshot. *)
let test_table1_cells () =
  let snapshot =
    List.map
      (fun c -> ((str [ "mapper" ] c, str [ "kernel" ] c), c))
      (elements [ "cells" ] (committed "BENCH_PR6.json"))
  in
  Alcotest.(check (list (pair string string)))
    "committed cells are Registry.all x the small suite"
    (List.concat_map
       (fun (m : Mapper.t) ->
         List.map (fun (k : Kernels.t) -> (m.name, k.name)) (Kernels.small_suite ()))
       Ocgra_mappers.Registry.all)
    (List.map fst snapshot);
  List.iter
    (fun ((mapper : Mapper.t), (k : Kernels.t), c) ->
      if not (is_ilp mapper) then
        let fields = Ocgra_mappers.Registry.cell_json c in
        let want = List.assoc (mapper.name, k.name) snapshot in
        let render fs = Ocgra_obs.Json.render (Ocgra_obs.Json.Obj fs) in
        Alcotest.(check string)
          (Printf.sprintf "%s on %s equals the committed cell" mapper.name k.name)
          (render (List.map (fun (f, _) -> (f, member [ f ] want)) fields))
          (render fields))
    (Lazy.force table1_sweep)

(* a modulo mapper handed a spatial problem answers (at II 1 or not at
   all) instead of raising *)
let test_temporal_mappers_on_spatial () =
  let k = Kernels.saxpy () in
  let p = Problem.spatial ~init:k.init ~dfg:k.dfg ~cgra:cgra_diag () in
  List.iter
    (fun (mapper : Mapper.t) ->
      if mapper.scope <> Taxonomy.Spatial_mapping then
        match mapper.map p (Rng.create 7) Deadline.none Ocgra_obs.Ctx.off with
        | exception e ->
            Alcotest.failf "%s raised %s on a spatial problem" mapper.name (Printexc.to_string e)
        | o -> (
            match o.Mapper.mapping with
            | Some m ->
                Alcotest.(check (list string)) (mapper.name ^ " spatial answer valid") []
                  (Check.validate p m)
            | None -> ()))
    Ocgra_mappers.Registry.all;
  let o = Mapper.run (Ocgra_mappers.Registry.find "dresc-sa") p in
  checkb "dresc-sa: no mapping, no attempt" true (o.Mapper.mapping = None && o.Mapper.attempts = 0)

(* temporal mappers should all map the easy kernels *)
let test_easy_kernels_map () =
  let easy = [ Kernels.dot_product (); Kernels.find "horner" ] in
  List.iter
    (fun name ->
      let mapper = Ocgra_mappers.Registry.find name in
      List.iter
        (fun (k : Kernels.t) ->
          let c = Ocgra_mappers.Registry.table1_cell mapper k in
          checkb
            (Printf.sprintf "%s maps %s" name k.name)
            true (c.Ocgra_mappers.Registry.ii <> None))
        easy)
    [ "modulo-greedy"; "edge-centric"; "dresc-sa"; "branch-and-bound"; "sat"; "cp";
      "iso-binding"; "list-scheduling"; "qea-binding"; "ilp-schedule" ]

(* achieved II never beats the MII lower bound *)
let test_ii_respects_mii () =
  List.iter
    (fun (k : Kernels.t) ->
      let mii = Mii.mii k.dfg cgra44 in
      let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 ~max_ii:16 () in
      let rng = Rng.create 5 in
      match Ocgra_mappers.Constructive.map p rng with
      | Some m, _, _ -> checkb (k.name ^ " ii >= mii") true (m.Mapping.ii >= mii)
      | None, _, _ -> ())
    (Kernels.full_suite ())

(* exact methods prove optimality on the dot product *)
let test_exactness_claims () =
  let k = Kernels.dot_product () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 ~max_ii:8 () in
  let o = Mapper.run (Ocgra_mappers.Registry.find "sat") ~seed:3 p in
  (match o.Mapper.mapping with
  | Some m ->
      checkb "sat achieves mii" true (m.Mapping.ii = Mii.mii k.dfg cgra44);
      checkb "sat proves optimal" true o.Mapper.proven_optimal
  | None -> Alcotest.fail "sat should map the dot product")

(* the SAT mapper refutes impossible IIs: horner at max_ii 1 *)
let test_sat_refutes_infeasible () =
  let k = Kernels.find "horner" in
  (* RecMII = 2, so max_ii = 1 leaves nothing feasible *)
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 ~max_ii:1 () in
  let o = Mapper.run (Ocgra_mappers.Registry.find "sat") ~seed:3 p in
  checkb "unsat below recmii" true (o.Mapper.mapping = None)

(* spatial mapping is refused/impossible for tight recurrences *)
let test_spatial_recurrence_fails () =
  let k = Kernels.find "horner" in
  let p = Problem.spatial ~init:k.init ~dfg:k.dfg ~cgra:cgra_diag () in
  let rng = Rng.create 3 in
  let m, _, _ = Ocgra_mappers.Constructive.map ~restarts:6 p rng in
  checkb "horner spatial impossible (RecMII 2)" true (m = None)

(* deterministic given the seed *)
let test_seed_determinism () =
  let k = Kernels.fir4 () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 () in
  let run () =
    match Ocgra_mappers.Constructive.map p (Rng.create 123) with
    | Some m, _, _ -> Some (m.Mapping.ii, m.Mapping.binding)
    | None, _, _ -> None
  in
  checkb "same result" true (run () = run ())

(* ---------- incremental II sweep vs cold-per-II baseline ---------- *)

let small_cgra n = Ocgra_arch.Cgra.uniform ~rows:n ~cols:n ()

let sweep_verdict ~incremental (k : Kernels.t) size max_ii =
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:(small_cgra size) ~max_ii () in
  let m, _, _, _ = Ocgra_mappers.Sat_temporal.map ~incremental p (Rng.create 11) in
  (p, m)

(* the shared-instance sweep and the cold baseline must agree on the
   SAT/UNSAT verdict and on the final II (models may differ) *)
let check_equivalent (k : Kernels.t) size max_ii =
  let p, mi = sweep_verdict ~incremental:true k size max_ii in
  let _, mc = sweep_verdict ~incremental:false k size max_ii in
  let label = Printf.sprintf "%s %dx%d" k.name size size in
  (match (mi, mc) with
  | None, None -> ()
  | Some a, Some b ->
      checkb (label ^ " same final II") true (a.Mapping.ii = b.Mapping.ii)
  | _ -> Alcotest.fail (label ^ ": verdicts differ between incremental and cold"));
  List.iter
    (fun m ->
      match m with
      | Some m ->
          Alcotest.(check (list string)) (label ^ " valid") [] (Check.validate p m)
      | None -> ())
    [ mi; mc ]

(* deterministic multi-attempt cases (optimal II > MII), where the
   incremental sweep actually carries state across candidate IIs *)
let test_cold_incremental_multi_attempt () =
  check_equivalent (Kernels.find "running-max") 2 8;
  check_equivalent (Kernels.absdiff ()) 2 8;
  (* all-UNSAT sweep: both modes must refute every candidate *)
  check_equivalent (Kernels.fir4 ()) 2 8

let qcheck_cold_incremental_equivalent =
  let combos =
    [|
      ("dot-product", 2); ("dot-product", 3); ("dot-product", 4);
      ("saxpy", 2); ("saxpy", 3); ("saxpy", 4);
      ("horner", 2); ("horner", 3); ("horner", 4);
      ("iir2", 2); ("iir2", 3);
      ("running-max", 2); ("running-max", 3);
      ("matvec2", 2);
    |]
  in
  QCheck.Test.make ~name:"cold and incremental sweeps agree" ~count:14
    QCheck.(int_bound (Array.length combos - 1))
    (fun i ->
      let name, size = combos.(i) in
      let k = Kernels.find name in
      let p, mi = sweep_verdict ~incremental:true k size 8 in
      let _, mc = sweep_verdict ~incremental:false k size 8 in
      match (mi, mc) with
      | None, None -> true
      | Some a, Some b ->
          a.Mapping.ii = b.Mapping.ii
          && Check.validate p a = [] && Check.validate p b = []
      | _ -> false)

(* search-path golden: the incremental and the cold sweep of `bench
   sat-sweep-only` (the committed seed, max II and grid) must spend
   exactly the committed BENCH_PR8.json work on running-max and
   absdiff.  Each cold row builds a fresh instance per candidate II, so
   its counts also pin that a new instance reports only its own work.
   Any change to propagation order, clause layout or decision
   heuristics moves these counts and must re-commit the snapshot. *)
let test_sat_search_path_golden () =
  let snapshot = committed "BENCH_PR8.json" in
  let module Json = Ocgra_obs.Json in
  List.iter
    (fun (name, (row_key, incremental)) ->
      let row = List.find (fun r -> str [ "kernel" ] r = name) (elements [ "kernels" ] snapshot) in
      let k = Kernels.find name in
      let cgra =
        Scanf.sscanf (str [ "grid" ] row) "%dx%d" (fun rows cols ->
            Ocgra_arch.Cgra.uniform ~rows ~cols ())
      in
      let max_ii = int [ "max_ii" ] snapshot in
      let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra ~max_ii () in
      let obs = Ocgra_obs.Ctx.create () in
      let m, attempts, _, _ =
        Ocgra_mappers.Sat_temporal.map ~incremental ~obs p (Rng.create (int [ "seed" ] snapshot))
      in
      let get = Ocgra_obs.Metrics.get (Ocgra_obs.Ctx.metrics obs) in
      let ii = Option.fold ~none:Json.Null ~some:(fun (m : Mapping.t) -> Json.int m.ii) m in
      Alcotest.(check (list string))
        (Printf.sprintf "%s %s ii/attempts/conflicts/decisions/propagations" name row_key)
        (List.map
           (fun f -> Json.render (member [ row_key; f ] row))
           [ "ii"; "attempts"; "conflicts"; "decisions"; "propagations" ])
        (List.map Json.render
           (ii
           :: List.map Json.int
                [ attempts; get "sat.conflicts"; get "sat.decisions"; get "sat.propagations" ])))
    (List.concat_map
       (fun name -> [ (name, ("incremental", true)); (name, ("cold", false)) ])
       [ "running-max"; "absdiff" ])

(* regression: the sat mapper used to report elapsed_s = 0.0.  Only
   [Mapper.run_d] measures time, so the check goes through [run]. *)
let test_sat_elapsed_reported () =
  let k = Kernels.dot_product () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 ~max_ii:8 () in
  let o = Mapper.run (Ocgra_mappers.Registry.find "sat") ~seed:3 p in
  checkb "mapped" true (o.Mapper.mapping <> None);
  checkb "elapsed measured" true (o.Mapper.elapsed_s > 0.0 && o.Mapper.elapsed_s < 300.0)

(* byte-determinism across worker counts: a single-tier race degrades
   to the sequential harness, so the sat mapping must be bit-identical
   at any worker count *)
let test_sat_worker_determinism () =
  let k = Kernels.absdiff () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:(small_cgra 2) ~max_ii:8 () in
  let chain = [ Ocgra_mappers.Registry.find "sat" ] in
  let o1 = Mapper.Harness.race ~seed:7 ~workers:1 chain p in
  let o4 = Mapper.Harness.race ~seed:7 ~workers:4 chain p in
  checkb "both map" true (o1.Mapper.mapping <> None && o4.Mapper.mapping <> None);
  checkb "same mapping bytes" true
    (Marshal.to_string o1.Mapper.mapping [] = Marshal.to_string o4.Mapper.mapping []);
  (* and plain repetition with the same seed is byte-stable too *)
  let o1' = Mapper.Harness.race ~seed:7 ~workers:1 chain p in
  checkb "repeat run byte-identical" true
    (Marshal.to_string o1.Mapper.mapping [] = Marshal.to_string o1'.Mapper.mapping [])

(* ---------- fabric symmetry breaking ---------- *)

module Cgra = Ocgra_arch.Cgra
module Fault = Ocgra_arch.Fault

let relabel_fault (s : int array) = function
  | Fault.Pe_down q -> Fault.Pe_down s.(q)
  | Fault.Link_down (a, b) -> Fault.Link_down (s.(a), s.(b))
  | Fault.Fu_slot_dead (q, k) -> Fault.Fu_slot_dead (s.(q), k)
  | Fault.Rf_reduced (q, k) -> Fault.Rf_reduced (s.(q), k)

let relabel_mapping (s : int array) (m : Mapping.t) =
  {
    m with
    Mapping.binding = Array.map (fun (pe, t) -> (s.(pe), t)) m.binding;
    routes =
      Array.map
        (List.map (function
          | Mapping.Hop h -> Mapping.Hop { h with pe = s.(h.pe) }
          | Mapping.Hold h -> Mapping.Hold { h with pe = s.(h.pe) }))
        m.routes;
  }

(* A random kernel on a healthy 2x2 or 3x3 mesh, plus a fault mask:
   up to three random faults and either a one-way link fault or a dead
   slot 0 or 1 (one that binds at II = 1 or 2, where these kernels
   map).  [closed] closes the mask under one random healthy-grid
   dihedral map, so some non-identity automorphisms survive it. *)
let symmetry_case ~closed (seed, grid, nodes, nfaults, link) =
  let rng = Rng.create seed in
  let params = { Ocgra_workloads.Random_dfg.default with nodes; layers = max 1 (nodes / 3) } in
  let dfg, _ = Ocgra_workloads.Random_dfg.generate ~params rng in
  let base = Cgra.uniform ~rows:grid ~cols:grid () in
  let mask = Cgra.inject_faults base ~seed ~n:nfaults in
  let q = Rng.int rng (Cgra.pe_count base) in
  let mask =
    if link then Fault.Link_down (q, Rng.choose_list rng (Cgra.raw_neighbours base q)) :: mask
    else Fault.Fu_slot_dead (q, Rng.int rng 2) :: mask
  in
  let dihedral = Array.of_list (Cgra.automorphisms base) in
  let tau = dihedral.(Rng.int rng (Array.length dihedral)) in
  let rec orbit f acc = if List.mem f acc then acc else orbit (relabel_fault tau f) (f :: acc) in
  let mask = if closed then List.concat_map (fun f -> orbit f []) mask else mask in
  (dfg, base, mask, tau)

let arb_symmetry_case =
  QCheck.make
    QCheck.Gen.(tup5 (int_bound 1_000_000) (int_range 2 3) (int_range 2 4) (int_bound 3) bool)
    ~print:(fun (s, g, n, f, l) ->
      Printf.sprintf "seed %d grid %d nodes %d faults %d link %b" s g n f l)

(* The registered sat mapper's path, under a conflict budget: the
   mapping, and whether the sweep was conclusive — no candidate II
   given up on the budget, so (II, proven) is the exact verdict. *)
let sat_run p =
  let m, _, proven, note =
    Ocgra_mappers.Sat_temporal.map ~max_conflicts:2_000 ~presolve:true p (Rng.create 1)
  in
  (m, proven || (m = None && String.starts_with ~prefix:"unsat" note))

(* Soundness of the pruning: every automorphism [Cgra.automorphisms]
   returns, applied to a certified sat mapping's binding and hop PEs,
   gives a mapping the checker accepts — the maps preserve the
   checker's whole model, not only the encoding's. *)
let test_automorphisms_sound () =
  let nontrivial = ref 0 in
  let sound case =
    let dfg, base, mask, _ = symmetry_case ~closed:true case in
    let cgra = Cgra.with_faults base mask in
    let p = Problem.temporal ~dfg ~cgra ~max_ii:(max 1 (Mii.mii dfg cgra) + 3) () in
    if Mii.mii dfg cgra = max_int || not (Problem.mappable p) then true
    else
      match sat_run p with
      | Some m, _ when Check.validate p m = [] ->
          List.for_all
            (fun s ->
              if s <> Array.init (Cgra.pe_count cgra) Fun.id then incr nontrivial;
              Check.validate p (relabel_mapping s m) = [])
            (Cgra.automorphisms cgra)
      | _ -> true
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 25 |])
    (QCheck.Test.make ~name:"automorphisms carry sat mappings to valid mappings" ~count:60
       arb_symmetry_case sound);
  Printf.printf "non-identity maps checked: %d\n" !nontrivial;
  checkb "non-identity automorphisms were checked" true (!nontrivial >= 20)

(* The pruning never changes a verdict: sat's (II, proven) on a fault
   mask equals its (II, proven) on that mask relabelled by a dihedral
   map of the healthy grid, although the two arrays keep different
   orbit representatives and search in a different order.  A sweep
   that gave a candidate up on the conflict budget proves nothing, so
   such a pair is skipped, and enough pairs must be conclusive. *)
let test_relabelled_mask_same_verdict () =
  let compared = ref 0 in
  let same case =
    let dfg, base, mask, tau = symmetry_case ~closed:false case in
    let run mask =
      let cgra = Cgra.with_faults base mask in
      let p = Problem.temporal ~dfg ~cgra ~max_ii:(max 1 (Mii.mii dfg base) + 3) () in
      if not (Problem.mappable p) then None
      else
        let m, conclusive = sat_run p in
        Some (Option.map (fun (m : Mapping.t) -> m.ii) m, conclusive)
    in
    match (run mask, run (List.map (relabel_fault tau) mask)) with
    | Some (a, true), Some (b, true) ->
        incr compared;
        a = b
    | a, b -> Option.is_some a = Option.is_some b
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 26 |])
    (QCheck.Test.make ~name:"relabelled fault masks get the same (II, proven)" ~count:30
       arb_symmetry_case same);
  Printf.printf "conclusive pairs compared: %d\n" !compared;
  checkb "enough conclusive pairs were compared" true (!compared >= 20)

(* One [sat.symmetry] event per solver instance — one for the shared
   incremental sweep, one per candidate II cold — and the pruned x
   literals counted.  running-max 2x2: the bound probe misses, so the
   solver runs; all four corners form one orbit. *)
let test_symmetry_events () =
  let k = Kernels.find "running-max" in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:(small_cgra 2) ~max_ii:8 () in
  let events mapper =
    let obs = Ocgra_obs.Ctx.create () in
    let o = (Ocgra_mappers.Registry.find mapper).Mapper.map p (Rng.create 7) Deadline.none obs in
    checkb (mapper ^ " maps") true (o.Mapper.mapping <> None);
    let evs = Ocgra_obs.Events.events (Ocgra_obs.Ctx.events obs) in
    let named name = List.filter (fun (e : Ocgra_obs.Events.event) -> e.name = name) evs in
    ( List.map (fun (e : Ocgra_obs.Events.event) -> e.args) (named "sat.symmetry"),
      List.length (named "sat.ii"),
      Ocgra_obs.Metrics.get (Ocgra_obs.Ctx.metrics obs) "sat.sym_pruned" )
  in
  let sym, iis, pruned = events "sat" in
  Alcotest.(check int) "one event for the shared instance" 1 (List.length sym);
  checkb "group order 8, one PE kept" true
    (List.for_all
       (function
         | [ ("order", Ocgra_obs.Events.Int 8); ("v0", Ocgra_obs.Events.Int _);
             ("kept", Ocgra_obs.Events.Int 1) ] -> true
         | _ -> false)
       sym);
  checkb "x literals pruned" true (pruned > 0);
  let sym_cold, iis_cold, _ = events "sat-cold" in
  Alcotest.(check int) "cold: one event per solved II" iis_cold (List.length sym_cold);
  checkb "both sweeps solve at least two IIs" true (iis >= 2 && iis_cold >= 2)

(* The greedy place-and-route mappers' exact answers, and dresc-sa's,
   whose bindings are routed by PathFinder through [Finalize], pinned:
   every library kernel on four arrays (a healthy 4x4 mesh, the same mesh
   with `--faults 3 --fault-seed 5`, the ADRES-like `--hetero` mesh and
   a 3x3 torus), mapped as `ocgra map` does (default temporal problem,
   seed 42).  Each case prints its attempts, the binding and every
   route step, holds included (the `map` grid shows no holds), so a
   change to the candidate order, the RNG draws or the router's
   tie-breaking moves a line.  On a mismatch the whole rendering is
   written to mapping_goldens.actual next to the test, to diff against
   test/mapping_goldens.txt or re-commit. *)
let golden_arrays =
  let open Ocgra_arch in
  let mesh = Cgra.uniform ~rows:4 ~cols:4 () in
  [
    ("mesh-4x4", mesh);
    ("mesh-4x4-faults-3-seed-5", Cgra.with_faults mesh (Cgra.inject_faults mesh ~seed:5 ~n:3));
    ("hetero-4x4", Cgra.adres_like ~rows:4 ~cols:4 ());
    ("torus-3x3", Cgra.uniform ~topology:Topology.Torus ~rows:3 ~cols:3 ());
  ]

let golden_mappers =
  [ "modulo-greedy"; "constructive"; "edge-centric"; "list-scheduling"; "dresc-sa" ]

let render_mapping b = function
  | None -> Buffer.add_string b "  failed\n"
  | Some (m : Mapping.t) ->
      Printf.bprintf b "  ii=%d nodes:" m.ii;
      Array.iteri (fun v (pe, t) -> Printf.bprintf b " %d=%d@%d" v pe t) m.binding;
      Buffer.add_char b '\n';
      Array.iteri
        (fun e route ->
          if route <> [] then begin
            Printf.bprintf b "  e%d:" e;
            List.iter
              (function
                | Mapping.Hop { pe; time } -> Printf.bprintf b " hop %d@%d" pe time
                | Mapping.Hold { pe; from_; until } ->
                    Printf.bprintf b " hold %d@%d..%d" pe from_ until)
              route;
            Buffer.add_char b '\n'
          end)
        m.routes

let render_case b array_name mapper_name (k : Kernels.t) (o : Mapper.outcome) =
  Printf.bprintf b "%s %s %s: attempts=%d%s\n" array_name mapper_name k.name o.attempts
    (if o.proven_optimal then " proven" else "");
  render_mapping b o.mapping

(* The SAT sweep on 2x2 arrays with one-way link faults, where a
   consumer's feeders are not its own neighbours, and with a dead FU
   slot and a downed PE: the sweep from the MII ([Sat_temporal.map],
   seed 1) must spend exactly this work and return exactly this
   mapping.  Any change to the feeder order or to which (PE, slot)
   cells are live moves the clause and variable numbering, and with it
   these counts. *)
let test_sat_faulted_golden () =
  let case name faults expected =
    let k = Kernels.find name in
    let cgra = Cgra.with_faults (small_cgra 2) faults in
    let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra () in
    let obs = Ocgra_obs.Ctx.create () in
    let m, attempts, proven, _ = Ocgra_mappers.Sat_temporal.map ~obs p (Rng.create 1) in
    let get = Ocgra_obs.Metrics.get (Ocgra_obs.Ctx.metrics obs) in
    let b = Buffer.create 256 in
    Printf.bprintf b "attempts=%d%s c/d/p=%d/%d/%d\n" attempts
      (if proven then " proven" else "")
      (get "sat.conflicts") (get "sat.decisions") (get "sat.propagations");
    render_mapping b m;
    Alcotest.(check string) (name ^ " " ^ Fault.list_to_string faults) expected (Buffer.contents b)
  in
  case "running-max" [ Fault.Link_down (0, 1) ]
    "attempts=2 proven c/d/p=609/1695/115350\n\
    \  ii=3 nodes: 0=0@1 1=3@5 2=2@3 3=3@6\n\
    \  e1: hop 0@2\n\
    \  e2: hop 3@4\n\
    \  e3: hop 2@2 hop 0@3 hop 2@4\n\
    \  e4: hop 1@6 hop 1@7\n";
  case "absdiff" [ Fault.Link_down (1, 0); Fault.Link_down (2, 3) ]
    "attempts=3 proven c/d/p=2828/7854/717290\n\
    \  ii=4 nodes: 0=0@0 1=2@0 2=0@1 3=2@2 4=1@1 5=3@3 6=1@4 7=3@5\n\
    \  e3: hop 1@2\n\
    \  e4: hop 3@2\n\
    \  e6: hop 0@3\n\
    \  e7: hop 0@2 hop 1@3\n";
  case "running-max" [ Fault.Fu_slot_dead (0, 1) ]
    "attempts=2 proven c/d/p=459/1396/79159\n\
    \  ii=3 nodes: 0=2@2 1=3@5 2=3@3 3=1@6\n\
    \  e2: hop 3@4\n\
    \  e3: hop 0@3 hop 1@4\n\
    \  e4: hop 2@6 hop 2@7\n";
  case "prefix-sum" [ Fault.Pe_down 2; Fault.Fu_slot_dead (1, 1) ]
    "attempts=3 proven c/d/p=237/1281/41061\n\
    \  ii=4 nodes: 0=3@5 1=1@6 2=1@7 3=1@8 4=3@8\n\
    \  e2: hop 0@8 hop 0@9 hop 0@10\n\
    \  e3: hop 3@6 hop 3@7\n"

let test_greedy_mapping_goldens () =
  let b = Buffer.create (1 lsl 16) in
  List.iter
    (fun (array_name, cgra) ->
      List.iter
        (fun mapper_name ->
          let mapper = Ocgra_mappers.Registry.find mapper_name in
          List.iter
            (fun (k : Kernels.t) ->
              let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra () in
              render_case b array_name mapper_name k (Mapper.run mapper ~seed:42 p))
            (Kernels.all ()))
        golden_mappers)
    golden_arrays;
  let actual = Buffer.contents b in
  let dir = Filename.dirname Sys.executable_name in
  let expected =
    In_channel.with_open_bin (Filename.concat dir "mapping_goldens.txt") In_channel.input_all
  in
  if actual <> expected then begin
    Out_channel.with_open_bin (Filename.concat dir "mapping_goldens.actual") (fun oc ->
        Out_channel.output_string oc actual);
    let lines s = String.split_on_char '\n' s in
    let rec first_diff i = function
      | x :: xs, y :: ys -> if x = y then first_diff (i + 1) (xs, ys) else (i, x, y)
      | x :: _, [] -> (i, "", x)
      | [], y :: _ -> (i, y, "")
      | [], [] -> (i, "", "")
    in
    let i, want, got = first_diff 1 (lines expected, lines actual) in
    Alcotest.failf "mapping goldens differ at line %d:\n  expected: %s\n  actual:   %s" i want got
  end

(* A random partial placement, the cases of the two tests below: a
   library or random kernel, a 2x2 to 4x4 mesh or torus with one-way
   link, reduced-RF and dead-PE faults (so some hop entries are
   unreachable), an II from 1 to MII + 2 and a random topological
   prefix of placed nodes.  [None] when the kernel does not fit the
   array or the whole order placed; otherwise the state, its router
   workspace, the first node that did not place and its candidate
   slots as the constructive mapper enumerates them (slack 6). *)
type prefix = {
  dfg : Ocgra_dfg.Dfg.t;
  cgra : Cgra.t;
  ii : int;
  ws : Route.workspace;
  state : Ocgra_mappers.Place_route.t;
  next : int;
  window : int -> (int * int) list;
}

let placed_prefix seed =
  let rng = Rng.create seed in
  let dfg =
    if Rng.bool rng then (Rng.choose_list rng (Kernels.all ())).dfg
    else
      let nodes = 4 + Rng.int rng 9 in
      let params = { Ocgra_workloads.Random_dfg.default with nodes; layers = max 1 (nodes / 3) } in
      fst (Ocgra_workloads.Random_dfg.generate ~params rng)
  in
  let topology = if Rng.bool rng then Ocgra_arch.Topology.Torus else Ocgra_arch.Topology.Mesh in
  let base = Cgra.uniform ~topology ~rows:(2 + Rng.int rng 3) ~cols:(2 + Rng.int rng 3) () in
  let npe = Cgra.pe_count base in
  let fault _ =
    let q = Rng.int rng npe in
    match Rng.int rng 3 with
    | 0 -> Fault.Link_down (q, Rng.choose_list rng (Cgra.raw_neighbours base q))
    | 1 -> Fault.Rf_reduced (q, 1 + Rng.int rng (Cgra.effective_rf_size base q))
    | _ -> Fault.Pe_down q
  in
  let cgra = Cgra.with_faults base (List.init (Rng.int rng 4) fault) in
  let mii = Mii.mii dfg cgra in
  if mii = max_int then None
  else begin
    let ii = 1 + Rng.int rng (max 1 mii + 2) in
    let p = Problem.temporal ~dfg ~cgra ~max_ii:ii () in
    if not (Problem.mappable p) then None
    else begin
      let ws = Route.workspace cgra in
      let state = Ocgra_mappers.Place_route.create ~ws p ~ii in
      let near = Ocgra_mappers.Place_route.near p in
      let window v =
        Ocgra_mappers.Place_route.gather state near v;
        List.concat_map
          (fun pe ->
            let est = Ocgra_mappers.Place_route.est near pe
            and lst = Ocgra_mappers.Place_route.lst near pe in
            List.init (max 0 (min lst (est + 6) - est + 1)) (fun k -> (pe, est + k)))
          (Cgra.capable_pes cgra (Ocgra_dfg.Dfg.op dfg v))
      in
      (* place up to a random number of nodes in a random topological
         order; the first one that does not place is the next node *)
      let order = Ocgra_mappers.Constructive.topo_order_by_height rng dfg in
      let prefix = Rng.int rng (List.length order) in
      let rec next i = function
        | [] -> None
        | v :: rest ->
            if i >= prefix then Some v
            else begin
              let slots = Array.of_list (window v) in
              Rng.shuffle_in_place rng slots;
              if
                Array.exists
                  (fun (pe, time) -> Ocgra_mappers.Place_route.place state v ~pe ~time)
                  slots
              then next (i + 1) rest
              else Some v
            end
      in
      Option.map (fun next -> { dfg; cgra; ii; ws; state; next; window }) (next 0 order)
    end
  end

(* The constructive mapper drops a candidate without a search when an
   in-edge's reachability field rules it out.  That is exact: on every
   free (pe, t) of the next node's window, the fields reject exactly
   the slots where some in-edge from a placed producer has no route
   even on its own, and there [Place_route.place] fails and leaves the
   occupancy, bindings and routes as they were. *)
let test_reach_filter_exact () =
  let rejected = ref 0 and accepted_failed = ref 0 in
  let snapshot (s : Ocgra_mappers.Place_route.t) =
    ( Array.copy s.occ.fu,
      Array.copy s.occ.rf,
      Array.copy s.binding,
      Array.copy s.placed,
      Array.copy s.routes )
  in
  let exact seed =
    match placed_prefix seed with
    | None -> true
    | Some { dfg; cgra; ii; ws; state; next = v; window } ->
        let slots = window v in
        let latest = List.fold_left (fun acc (_, t) -> max acc t) 0 slots in
        let wss = Array.init (Ocgra_dfg.Dfg.node_count dfg) (fun _ -> Route.workspace cgra) in
        let reach = Ocgra_mappers.Place_route.reach state wss v ~latest in
        let before = snapshot state in
        (* each in-edge from a placed producer routed on its own *)
        let alone ~pe ~time =
          List.for_all
            (fun (e : Ocgra_dfg.Dfg.edge) ->
              e.src = v
              || (not (Ocgra_mappers.Place_route.is_placed state e.src))
              || Route.route_edge ws (Route.strict cgra state.occ) ~ii
                   ~src:(Ocgra_mappers.Place_route.binding_of state e.src)
                   ~dst:(pe, time)
                   ~lat:(Ocgra_dfg.Op.latency (Ocgra_dfg.Dfg.op dfg e.src))
                   ~dist:e.dist
                 <> None)
            (Ocgra_dfg.Dfg.in_edges dfg v)
        in
        List.for_all
          (fun (pe, time) ->
            if not (Occupancy.fu_free state.occ ~pe ~time) then true
            else if Ocgra_mappers.Place_route.reachable reach ~pe ~time <> alone ~pe ~time then
              false
            else if Ocgra_mappers.Place_route.reachable reach ~pe ~time then begin
              if Ocgra_mappers.Place_route.place state v ~pe ~time then
                Ocgra_mappers.Place_route.unplace state v
              else incr accepted_failed;
              snapshot state = before
            end
            else begin
              incr rejected;
              (not (Ocgra_mappers.Place_route.place state v ~pe ~time))
              && snapshot state = before
            end)
          slots
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 34 |])
    (QCheck.Test.make ~name:"reach filter rejects only what place rejects" ~count:1000
       QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
       exact);
  Printf.printf "rejected without a search: %d, accepted then failed: %d\n" !rejected
    !accepted_failed;
  checkb "the fields rejected candidates" true (!rejected >= 2000)

(* The window and proximity rules as they were written before
   [Place_route.gather]: one walk over a node's incident edges per
   (node, PE) pair.  Kept here as the oracle of the gathered form. *)
let walked_window (s : Ocgra_mappers.Place_route.t) hop_table v pe =
  let est = ref 0 and lst = ref (Problem.max_time s.problem - 1) in
  List.iter
    (fun i ->
      let e = s.edges.(i) in
      if e.dst = v && s.placed.(e.src) && e.src <> v then begin
        let pu, tu = s.binding.(e.src) in
        let lat = Ocgra_dfg.Op.latency (Ocgra_dfg.Dfg.op s.problem.dfg e.src) in
        let hops = hop_table.(pu).(pe) in
        if hops < Cgra.unreachable then
          est := max !est (tu + lat + max 0 (hops - 1) - (e.dist * s.ii))
      end;
      if e.src = v && s.placed.(e.dst) && e.dst <> v then begin
        let pw, tw = s.binding.(e.dst) in
        let lat = Ocgra_dfg.Op.latency (Ocgra_dfg.Dfg.op s.problem.dfg v) in
        let hops = hop_table.(pe).(pw) in
        if hops < Cgra.unreachable then
          lst := min !lst (tw + (e.dist * s.ii) - lat - max 0 (hops - 1))
      end)
    s.incident.(v);
  (max 0 !est, !lst)

let walked_proximity (s : Ocgra_mappers.Place_route.t) hop_table v pe =
  let rec sum total placed = function
    | [] -> if placed > 0 then Some total else None
    | i :: rest ->
        let e = s.edges.(i) in
        let other = if e.src = v then e.dst else e.src in
        if other <> v && s.placed.(other) then begin
          let po, _ = s.binding.(other) in
          let h = if e.src = v then hop_table.(pe).(po) else hop_table.(po).(pe) in
          if h < Cgra.unreachable then sum (total + h) (placed + 1) rest else sum total placed rest
        end
        else sum total placed rest
  in
  sum 0 0 s.incident.(v)

(* The gathered neighbours give the walked (est, lst, proximity) of
   every node on every PE that can run it, on the random prefixes of
   the reach-filter test. *)
let test_gathered_window () =
  let checked = ref 0 in
  let same seed =
    match placed_prefix seed with
    | None -> true
    | Some { dfg; cgra; state; _ } ->
        let hop_table = Cgra.hop_table cgra in
        let near = Ocgra_mappers.Place_route.near state.problem in
        List.for_all
          (fun v ->
            Ocgra_mappers.Place_route.gather state near v;
            List.for_all
              (fun pe ->
                incr checked;
                let gathered =
                  ( Ocgra_mappers.Place_route.est near pe,
                    Ocgra_mappers.Place_route.lst near pe,
                    match Ocgra_mappers.Place_route.proximity near pe with
                    | -1 -> None
                    | h -> Some h )
                in
                let est, lst = walked_window state hop_table v pe in
                gathered = (est, lst, walked_proximity state hop_table v pe))
              (Cgra.capable_pes cgra (Ocgra_dfg.Dfg.op dfg v)))
          (List.init (Ocgra_dfg.Dfg.node_count dfg) Fun.id)
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 35 |])
    (QCheck.Test.make ~name:"gathered window equals the walked one" ~count:1000
       QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
       same);
  checkb "pairs checked" true (!checked >= 10_000)

(* decoupled scheduling: the list scheduler respects resources & deps *)
let test_list_schedule_properties () =
  let k = Kernels.fir4 () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 () in
  let rng = Rng.create 3 in
  match Ocgra_mappers.Sched.modulo_list_schedule p rng ~ii:2 with
  | None -> Alcotest.fail "fir4 schedules at II=2"
  | Some times ->
      (* dependences respected *)
      Ocgra_dfg.Dfg.iter_edges
        (fun (e : Ocgra_dfg.Dfg.edge) ->
          if e.src <> e.dst then
            checkb "dep" true
              (times.(e.dst) + (e.dist * 2)
              >= times.(e.src) + Ocgra_dfg.Op.latency (Ocgra_dfg.Dfg.op k.dfg e.src)))
        k.dfg;
      (* per-slot class capacity *)
      let count = Hashtbl.create 8 in
      Array.iteri
        (fun v t ->
          let key = (Ocgra_dfg.Op.func_class (Ocgra_dfg.Dfg.op k.dfg v), t mod 2) in
          Hashtbl.replace count key (1 + Option.value ~default:0 (Hashtbl.find_opt count key)))
        times;
      Hashtbl.iter (fun _ c -> checkb "capacity" true (c <= 16)) count

let () =
  Alcotest.run "mappers"
    [
      ( "validity",
        [
          Alcotest.test_case "every mapper output validates" `Slow
            test_every_mapper_output_validates;
          Alcotest.test_case "Table I cells equal BENCH_PR6.json" `Slow test_table1_cells;
          Alcotest.test_case "greedy mappings equal the goldens" `Slow
            test_greedy_mapping_goldens;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "easy kernels map" `Slow test_easy_kernels_map;
          Alcotest.test_case "ii >= mii" `Quick test_ii_respects_mii;
          Alcotest.test_case "exactness claims" `Quick test_exactness_claims;
          Alcotest.test_case "sat refutes infeasible" `Quick test_sat_refutes_infeasible;
          Alcotest.test_case "spatial recurrence fails" `Quick test_spatial_recurrence_fails;
          Alcotest.test_case "seed determinism" `Quick test_seed_determinism;
          Alcotest.test_case "list scheduler properties" `Quick test_list_schedule_properties;
          Alcotest.test_case "modulo mappers on spatial" `Quick test_temporal_mappers_on_spatial;
          Alcotest.test_case "reach filter is exact" `Quick test_reach_filter_exact;
          Alcotest.test_case "gathered window equals the walked one" `Quick test_gathered_window;
        ] );
      ( "incremental sat",
        [
          Alcotest.test_case "multi-attempt sweeps agree" `Slow test_cold_incremental_multi_attempt;
          QCheck_alcotest.to_alcotest qcheck_cold_incremental_equivalent;
          Alcotest.test_case "elapsed_s reported" `Quick test_sat_elapsed_reported;
          Alcotest.test_case "search-path golden counts" `Quick test_sat_search_path_golden;
          Alcotest.test_case "faulted search-path goldens" `Quick test_sat_faulted_golden;
          Alcotest.test_case "worker-count determinism" `Slow test_sat_worker_determinism;
        ] );
      ( "symmetry",
        [
          Alcotest.test_case "automorphisms carry mappings to valid ones" `Slow
            test_automorphisms_sound;
          Alcotest.test_case "relabelled masks keep the verdict" `Slow
            test_relabelled_mask_same_verdict;
          Alcotest.test_case "events and counters" `Quick test_symmetry_events;
        ] );
    ]
