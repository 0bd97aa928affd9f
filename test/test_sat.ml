(* SAT solver tests: hand instances, brute-force agreement on random
   CNF (with and without assumptions), pigeonhole unsatisfiability,
   cardinality encodings. *)

module Solver = Ocgra_sat.Solver
module Enc = Ocgra_sat.Encodings
module Rng = Ocgra_util.Rng

let check = Alcotest.check Alcotest.bool
let new_vars s n = List.init n (fun _ -> Solver.new_var s)

(* [k] distinct indices drawn from [0, n) *)
let sample_indices rng n k =
  let a = Array.init n Fun.id in
  Rng.shuffle_in_place rng a;
  Array.sub a 0 k

(* brute-force satisfiability of a CNF over vars 1..n *)
let brute_force n clauses =
  let rec go assignment v =
    if v > n then
      List.for_all
        (fun clause ->
          List.exists
            (fun l ->
              let var = Solver.var_of l in
              if Solver.is_pos l then assignment.(var) else not assignment.(var))
            clause)
        clauses
    else begin
      assignment.(v) <- true;
      go assignment (v + 1)
      ||
      (assignment.(v) <- false;
       go assignment (v + 1))
    end
  in
  go (Array.make (n + 1) false) 1

let solve_clauses n clauses =
  let s = Solver.create () in
  let _vars = new_vars s n in
  List.iter (Solver.add_clause s) clauses;
  (s, Solver.solve s)

let model_satisfies s clauses = List.for_all (List.exists (Solver.value s)) clauses

let test_trivial () =
  let s = Solver.create () in
  let v = Solver.new_var s in
  Solver.add_clause s [ Solver.pos v ];
  check "sat" true (Solver.solve s = Solver.Sat);
  check "value" true (Solver.value s (Solver.pos v));
  check "negated value" false (Solver.value s (Solver.neg v))

let test_unsat_pair () =
  let s = Solver.create () in
  let v = Solver.new_var s in
  Solver.add_clause s [ Solver.pos v ];
  Solver.add_clause s [ Solver.neg v ];
  check "unsat" true (Solver.solve s = Solver.Unsat)

let test_empty_clause () =
  let s = Solver.create () in
  let _ = Solver.new_var s in
  Solver.add_clause s [];
  check "unsat" true (Solver.solve s = Solver.Unsat)

let test_implication_chain () =
  let s = Solver.create () in
  let n = 50 in
  let vars = Array.of_list (new_vars s n) in
  for i = 0 to n - 2 do
    Solver.add_clause s [ Solver.neg vars.(i); Solver.pos vars.(i + 1) ]
  done;
  Solver.add_clause s [ Solver.pos vars.(0) ];
  check "sat" true (Solver.solve s = Solver.Sat);
  for i = 0 to n - 1 do
    check "chain forced" true (Solver.value s (Solver.pos vars.(i)))
  done

(* Pigeonhole: n+1 pigeons, n holes -> UNSAT; stresses learning. *)
let pigeonhole ?reduce_base n =
  let s = Solver.create ?reduce_base () in
  let x = Array.init (n + 1) (fun _ -> Array.of_list (new_vars s n)) in
  for p = 0 to n do
    Solver.add_clause s (List.init n (fun h -> Solver.pos x.(p).(h)))
  done;
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        Solver.add_clause s [ Solver.neg x.(p1).(h); Solver.neg x.(p2).(h) ]
      done
    done
  done;
  s

(* Also a search-path golden: the exact (conflicts, decisions,
   propagations) of pigeonhole 6/5.  Both paths of the normalisation
   property below go through the same sort, so that property cannot see
   the order a stored clause keeps; these counts can: they move if
   clauses are stored in another order than ascending (a descending sort
   gives 135, 169, 1581), and with any other change to the watches or
   to conflict analysis. *)
let test_pigeonhole () =
  let s = pigeonhole 5 in
  check "php unsat" true (Solver.solve s = Solver.Unsat);
  let st = Solver.stats s in
  Alcotest.(check (triple int int int))
    "stats" (148, 192, 1756)
    (st.conflicts, st.decisions, st.propagations)

let test_assumptions () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ Solver.neg a; Solver.pos b ];
  check "sat under a" true (Solver.solve ~assumptions:[ Solver.pos a ] s = Solver.Sat);
  check "b forced" true (Solver.value s (Solver.pos b));
  Solver.add_clause s [ Solver.neg b ];
  check "unsat under a" true (Solver.solve ~assumptions:[ Solver.pos a ] s = Solver.Unsat);
  (* instance still satisfiable without the assumption *)
  check "sat without" true (Solver.solve s = Solver.Sat)

(* a contradicted assumption refutes the query, not the instance *)
let test_unsat_assumptions_keep_instance () =
  let s = Solver.create () in
  let a = Solver.pos (Solver.new_var s)
  and b = Solver.pos (Solver.new_var s)
  and c = Solver.pos (Solver.new_var s) in
  Solver.add_clause s [ Solver.negate a; Solver.negate b ];
  check "unsat under a,b,c" true
    (Solver.solve ~assumptions:[ a; b; c ] s = Solver.Unsat);
  check "instance usable" true (Solver.is_ok s);
  check "sat dropping b" true (Solver.solve ~assumptions:[ a; c ] s = Solver.Sat)

let test_instance_unsat_under_assumptions () =
  let s = Solver.create () in
  let a = Solver.pos (Solver.new_var s) in
  Solver.add_clause s [];
  check "unsat" true (Solver.solve ~assumptions:[ a ] s = Solver.Unsat);
  check "not ok" true (not (Solver.is_ok s))

(* guard literals make clause groups retractable: activate each group
   by assumption, retire it with a unit against its guard *)
let test_guard_groups () =
  let s = Solver.create () in
  let g1 = Solver.pos (Solver.new_var s) and g2 = Solver.pos (Solver.new_var s) in
  let x = Solver.new_var s in
  Enc.implies s g1 [ Solver.pos x ];
  Enc.implies s g2 [ Solver.neg x ];
  check "group 1 sat" true (Solver.solve ~assumptions:[ g1 ] s = Solver.Sat);
  check "group 1 forces x" true (Solver.value s (Solver.pos x));
  check "group 2 sat" true (Solver.solve ~assumptions:[ g2 ] s = Solver.Sat);
  check "group 2 forces ~x" true (Solver.value s (Solver.neg x));
  check "both unsat" true (Solver.solve ~assumptions:[ g1; g2 ] s = Solver.Unsat);
  check "instance usable" true (Solver.is_ok s);
  (* retire group 1; group 2 must still activate on the same instance *)
  Solver.add_clause s [ Solver.negate g1 ];
  check "group 2 after retirement" true (Solver.solve ~assumptions:[ g2 ] s = Solver.Sat);
  check "still ~x" true (Solver.value s (Solver.neg x));
  Alcotest.(check (list string)) "self_check clean" [] (Solver.self_check s)

(* a tiny reduce_db budget forces learnt-DB reductions on the
   pigeonhole instance; reductions must never break the verdict or the
   reason/watch invariants (reasons of asserted literals are locked) *)
let test_reduce_db_invariants () =
  let s = pigeonhole ~reduce_base:10 5 in
  check "php unsat under reduction" true (Solver.solve s = Solver.Unsat);
  check "reduction actually ran" true ((Solver.stats s).reduces >= 1);
  Alcotest.(check (list string)) "self_check clean" [] (Solver.self_check s)

(* long solves must keep clause activities finite: the rescale guard
   is exercised by many conflicts on a small budget *)
let test_clause_activity_rescale () =
  let s = pigeonhole ~reduce_base:50 6 in
  check "php6 unsat" true (Solver.solve s = Solver.Unsat);
  check "enough conflicts to matter" true ((Solver.stats s).conflicts > 100);
  Alcotest.(check (list string)) "self_check clean" [] (Solver.self_check s)

(* regression: unknown variables must be refused on every path, not
   only once a clause survives the tautology test, and not only while
   the instance is still satisfiable *)
let test_unknown_variables () =
  let raises what f =
    check what true (match f () with () -> false | exception Invalid_argument _ -> true)
  in
  let s = Solver.create () in
  let _ = Solver.new_var s in
  raises "tautology over unknown var" (fun () ->
      Solver.add_clause s [ Solver.pos 1000; Solver.neg 1000 ]);
  Solver.add_clause s [];
  check "instance unsat" true (not (Solver.is_ok s));
  raises "unknown var after empty clause" (fun () -> Solver.add_clause s [ Solver.pos 77 ]);
  raises "unknown assumption after empty clause" (fun () ->
      ignore (Solver.solve ~assumptions:[ Solver.pos 77 ] s))

let random_cnf rng ~nvars ~nclauses ~width =
  List.init nclauses (fun _ ->
      List.init (1 + Rng.int rng width) (fun _ ->
          let v = 1 + Rng.int rng nvars in
          if Rng.bool rng then Solver.pos v else Solver.neg v))

let qcheck_agree_with_brute_force =
  QCheck.Test.make ~name:"random CNF agrees with brute force" ~count:300
    QCheck.(pair (int_bound 1_000_000) (int_range 1 10))
    (fun (seed, nvars) ->
      let rng = Rng.create (seed * 7919) in
      let nclauses = 2 + Rng.int rng (4 * nvars) in
      let clauses = random_cnf rng ~nvars ~nclauses ~width:3 in
      let s, result = solve_clauses nvars clauses in
      let expected = brute_force nvars clauses in
      match result with
      | Solver.Sat -> expected && model_satisfies s clauses
      | Solver.Unsat -> not expected
      | Solver.Unknown -> false)

(* assumptions against an independent reference: the verdict under
   assumptions must be brute force's over the clauses plus one unit
   clause per assumption, and a model must satisfy both *)
let qcheck_assumptions_agree_with_brute_force =
  QCheck.Test.make ~name:"solving under assumptions agrees with brute force" ~count:300
    QCheck.(pair (int_bound 1_000_000) (int_range 2 10))
    (fun (seed, nvars) ->
      let rng = Rng.create ((seed * 31) + 7) in
      let nclauses = 2 + Rng.int rng (5 * nvars) in
      let clauses = random_cnf rng ~nvars ~nclauses ~width:3 in
      let s = Solver.create () in
      let _ = new_vars s nvars in
      List.iter (Solver.add_clause s) clauses;
      let n_assump = 1 + Rng.int rng nvars in
      let assumptions =
        Array.to_list
          (Array.map
             (fun i -> if Rng.bool rng then Solver.pos (i + 1) else Solver.neg (i + 1))
             (sample_indices rng nvars n_assump))
      in
      let expected = brute_force nvars (clauses @ List.map (fun a -> [ a ]) assumptions) in
      match Solver.solve ~assumptions s with
      | Solver.Unknown -> false
      | Solver.Sat ->
          expected && model_satisfies s clauses && List.for_all (Solver.value s) assumptions
      | Solver.Unsat -> not expected)

(* incremental reuse: one instance answering a sequence of assumption
   queries must agree with a fresh instance per query *)
let qcheck_incremental_matches_fresh =
  QCheck.Test.make ~name:"incremental solves match fresh solves" ~count:150
    QCheck.(pair (int_bound 1_000_000) (int_range 2 8))
    (fun (seed, nvars) ->
      let rng = Rng.create ((seed * 17) + 3) in
      let nclauses = 2 + Rng.int rng (4 * nvars) in
      let clauses = random_cnf rng ~nvars ~nclauses ~width:3 in
      let shared = Solver.create ~reduce_base:8 () in
      let _ = new_vars shared nvars in
      List.iter (Solver.add_clause shared) clauses;
      let queries =
        List.init 4 (fun _ ->
            let n_assump = Rng.int rng (nvars + 1) in
            Array.to_list
              (Array.map
                 (fun i -> if Rng.bool rng then Solver.pos (i + 1) else Solver.neg (i + 1))
                 (sample_indices rng nvars n_assump)))
      in
      List.for_all
        (fun assumptions ->
          let fresh = Solver.create () in
          let _ = new_vars fresh nvars in
          List.iter (Solver.add_clause fresh) clauses;
          Solver.solve ~assumptions shared = Solver.solve ~assumptions fresh
          && Solver.self_check shared = [])
        queries)

(* Today's clause normalisation, written over lists as the reference:
   sort ascending without repeats, drop a tautology, then drop every
   literal false at the root and every clause a root-true literal
   already satisfies.  [fixed] holds the literals the test itself made
   true at the root with unit clauses; literals the solver derived from
   them are left to the solver, which strips them on both paths alike.
   [None] means the clause is not added at all. *)
let reference_normalise fixed lits =
  let lits = List.sort_uniq compare lits in
  if List.exists (fun l -> List.mem (Solver.negate l) lits) lits then None
  else if List.exists (fun l -> Hashtbl.mem fixed l) lits then None
  else Some (List.filter (fun l -> not (Hashtbl.mem fixed (Solver.negate l))) lits)

(* One raw clause from a CNF clause: some literals repeated, sometimes a
   complementary pair, the whole shuffled. *)
let noisy_clause rng clause =
  let extra = List.filter (fun _ -> Rng.int rng 3 = 0) clause in
  let taut = match clause with l :: _ when Rng.int rng 5 = 0 -> [ Solver.negate l ] | _ -> [] in
  let a = Array.of_list (clause @ extra @ taut) in
  Rng.shuffle_in_place rng a;
  Array.to_list a

(* add_clause's normalisation must be invisible: a solver fed raw
   clauses (shuffled, with repeats, complementary pairs and literals
   the root already fixes) and one fed the reference-normalised clauses
   take the same search, in two rounds of add-then-solve *)
let qcheck_normalisation_invisible =
  QCheck.Test.make ~name:"add_clause normalisation is invisible" ~count:300
    QCheck.(pair (int_bound 1_000_000) (int_range 2 10))
    (fun (seed, nvars) ->
      let rng = Rng.create ((seed * 13) + 5) in
      let raw = Solver.create ~reduce_base:8 () and norm = Solver.create ~reduce_base:8 () in
      let _ = new_vars raw nvars and _ = new_vars norm nvars in
      let fixed = Hashtbl.create 8 in
      let add lits =
        Solver.add_clause raw lits;
        Option.iter (Solver.add_clause norm) (reference_normalise fixed lits);
        match lits with [ l ] -> Hashtbl.replace fixed l () | _ -> ()
      in
      let round () =
        let nclauses = 2 + Rng.int rng (4 * nvars) in
        List.iter
          (fun clause ->
            if Rng.int rng 8 = 0 then add [ List.hd clause ];
            add (noisy_clause rng clause))
          (random_cnf rng ~nvars ~nclauses ~width:4);
        let r = Solver.solve raw and r' = Solver.solve norm in
        r = r' && Solver.stats raw = Solver.stats norm
        && Solver.self_check raw = [] && Solver.self_check norm = []
      in
      round () && round ())

let qcheck_exactly_one =
  QCheck.Test.make ~name:"exactly_one has exactly one true" ~count:100
    QCheck.(pair (int_bound 1_000_000) (int_range 1 15))
    (fun (_seed, n) ->
      let s = Solver.create () in
      let vars = Array.of_list (new_vars s n) in
      Enc.exactly_one s (Array.to_list (Array.map Solver.pos vars));
      match Solver.solve s with
      | Solver.Sat ->
          let count =
            Array.fold_left (fun acc v -> if Solver.value s (Solver.pos v) then acc + 1 else acc) 0 vars
          in
          count = 1
      | _ -> false)

let () =
  Alcotest.run "sat"
    [
      ( "unit",
        [
          Alcotest.test_case "trivial" `Quick test_trivial;
          Alcotest.test_case "unsat pair" `Quick test_unsat_pair;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "implication chain" `Quick test_implication_chain;
          Alcotest.test_case "pigeonhole" `Quick test_pigeonhole;
          Alcotest.test_case "assumptions" `Quick test_assumptions;
          Alcotest.test_case "unsat assumptions keep the instance" `Quick
            test_unsat_assumptions_keep_instance;
          Alcotest.test_case "instance unsat under assumptions" `Quick
            test_instance_unsat_under_assumptions;
          Alcotest.test_case "guard groups" `Quick test_guard_groups;
          Alcotest.test_case "reduce_db invariants" `Quick test_reduce_db_invariants;
          Alcotest.test_case "activity stays finite" `Quick test_clause_activity_rescale;
          Alcotest.test_case "unknown variables rejected" `Quick test_unknown_variables;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest qcheck_agree_with_brute_force;
          QCheck_alcotest.to_alcotest qcheck_exactly_one;
          QCheck_alcotest.to_alcotest qcheck_assumptions_agree_with_brute_force;
          QCheck_alcotest.to_alcotest qcheck_incremental_matches_fresh;
          QCheck_alcotest.to_alcotest qcheck_normalisation_invisible;
        ] );
    ]
