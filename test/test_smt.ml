(* Difference-logic SMT tests: hand cases, agreement with a
   Bellman-Ford ground truth on random systems, and boolean/theory
   interaction. *)

module Smt = Ocgra_smt.Smt
module Sat = Ocgra_sat.Solver
module Rng = Ocgra_util.Rng

let checkb = Alcotest.check Alcotest.bool

let test_feasible_chain () =
  let s = Smt.create () in
  let x = Smt.new_int s and y = Smt.new_int s and z = Smt.new_int s in
  (* y - x >= 2, z - y >= 3, z - x <= 10 *)
  Sat.add_clause (Smt.sat_solver s) [ Smt.atom_ge s y x 2 ];
  Sat.add_clause (Smt.sat_solver s) [ Smt.atom_ge s z y 3 ];
  Sat.add_clause (Smt.sat_solver s) [ Smt.atom_le s z x 10 ];
  checkb "sat" true (Smt.solve s = Smt.Sat_);
  let vx = Smt.int_value s x and vy = Smt.int_value s y and vz = Smt.int_value s z in
  checkb "y-x>=2" true (vy - vx >= 2);
  checkb "z-y>=3" true (vz - vy >= 3);
  checkb "z-x<=10" true (vz - vx <= 10)

let test_infeasible_cycle () =
  let s = Smt.create () in
  let x = Smt.new_int s and y = Smt.new_int s in
  (* y - x >= 5 and x - y >= 5: negative cycle *)
  Sat.add_clause (Smt.sat_solver s) [ Smt.atom_ge s y x 5 ];
  Sat.add_clause (Smt.sat_solver s) [ Smt.atom_ge s x y 5 ];
  checkb "unsat" true (Smt.solve s = Smt.Unsat_)

let test_theory_guides_boolean () =
  let s = Smt.create () in
  let x = Smt.new_int s and y = Smt.new_int s in
  (* b -> (y - x >= 3);  always: x - y >= -1 (i.e. y - x <= 1);  b or c *)
  let b = Smt.new_bool s and c = Smt.new_bool s in
  let atom = Smt.atom_ge s y x 3 in
  Sat.add_clause (Smt.sat_solver s) [ Sat.negate b; atom ];
  Sat.add_clause (Smt.sat_solver s) [ Smt.atom_le s y x 1 ];
  Sat.add_clause (Smt.sat_solver s) [ b; c ];
  checkb "sat" true (Smt.solve s = Smt.Sat_);
  (* b cannot hold, so c must *)
  checkb "b false" false (Sat.value (Smt.sat_solver s) b);
  checkb "c true" true (Sat.value (Smt.sat_solver s) c)

let test_eq_constraint () =
  let s = Smt.create () in
  let x = Smt.new_int s and y = Smt.new_int s in
  Sat.add_clause (Smt.sat_solver s) [ Smt.atom_le s x y 4 ];
  Sat.add_clause (Smt.sat_solver s) [ Smt.atom_ge s x y 4 ];
  checkb "sat" true (Smt.solve s = Smt.Sat_);
  checkb "x = y + 4" true (Smt.int_value s x - Smt.int_value s y = 4)

(* ground truth: Bellman-Ford feasibility of a difference system *)
let feasible_ground_truth n constraints =
  (* constraints: (x, y, c) meaning value(x) - value(y) <= c *)
  let dist = Array.make n 0 in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n + 1 do
    changed := false;
    incr rounds;
    List.iter
      (fun (x, y, c) ->
        if dist.(y) + c < dist.(x) then begin
          dist.(x) <- dist.(y) + c;
          changed := true
        end)
      constraints
  done;
  not !changed

let qcheck_idl_vs_bellman_ford =
  QCheck.Test.make ~name:"IDL agrees with Bellman-Ford on conjunctions" ~count:200
    QCheck.(pair small_int (int_range 2 8))
    (fun (seed, n) ->
      let rng = Rng.create (seed * 13) in
      let m = 1 + Rng.int rng (3 * n) in
      let constraints =
        List.init m (fun _ ->
            let x = Rng.int rng n and y = Rng.int rng n in
            if x = y then (x, (y + 1) mod n, Rng.int_in rng (-4) 6)
            else (x, y, Rng.int_in rng (-4) 6))
      in
      let s = Smt.create () in
      let vars = Array.init n (fun _ -> Smt.new_int s) in
      List.iter
        (fun (x, y, c) ->
          Sat.add_clause (Smt.sat_solver s) [ Smt.atom_le s vars.(x) vars.(y) c ])
        constraints;
      let expected = feasible_ground_truth n constraints in
      match Smt.solve s with
      | Smt.Sat_ ->
          expected
          && List.for_all
               (fun (x, y, c) -> Smt.int_value s vars.(x) - Smt.int_value s vars.(y) <= c)
               constraints
      | Smt.Unsat_ -> not expected
      | Smt.Unknown_ -> false)

let qcheck_idl_disjunctions =
  QCheck.Test.make ~name:"IDL with disjunction picks a consistent branch" ~count:100
    QCheck.(pair small_int (int_range 2 6))
    (fun (seed, n) ->
      let rng = Rng.create (seed + 5) in
      let s = Smt.create () in
      let vars = Array.init n (fun _ -> Smt.new_int s) in
      (* random chains plus one disjunctive clause of two atoms *)
      for _ = 1 to n do
        let x = Rng.int rng n and y = Rng.int rng n in
        if x <> y then
          Sat.add_clause (Smt.sat_solver s) [ Smt.atom_le s vars.(x) vars.(y) (Rng.int_in rng 0 5) ]
      done;
      let a1 = Smt.atom_le s vars.(0) vars.(n - 1) (-2) in
      let a2 = Smt.atom_ge s vars.(0) vars.(n - 1) 2 in
      Sat.add_clause (Smt.sat_solver s) [ a1; a2 ];
      match Smt.solve s with
      | Smt.Sat_ ->
          let d = Smt.int_value s vars.(0) - Smt.int_value s vars.(n - 1) in
          d <= -2 || d >= 2
      | Smt.Unsat_ -> true (* nothing to check, but must not be Unknown *)
      | Smt.Unknown_ -> false)

let () =
  Alcotest.run "smt"
    [
      ( "unit",
        [
          Alcotest.test_case "feasible chain" `Quick test_feasible_chain;
          Alcotest.test_case "negative cycle" `Quick test_infeasible_cycle;
          Alcotest.test_case "theory guides boolean" `Quick test_theory_guides_boolean;
          Alcotest.test_case "equality" `Quick test_eq_constraint;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest qcheck_idl_vs_bellman_ford;
          QCheck_alcotest.to_alcotest qcheck_idl_disjunctions;
        ] );
    ]
