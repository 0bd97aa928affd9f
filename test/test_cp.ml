(* Constraint solver tests: n-queens counts, constraint filtering and
   brute-force agreement on random binary CSPs.  Solutions are counted
   by splitting on each branching variable's values and asking [solve]
   whether the fixed prefix still has a solution. *)

module Cp = Ocgra_cp.Solver
module Rng = Ocgra_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* [count_solutions build] counts the assignments of the branching
   variables that extend to a solution.  [build ()] makes a fresh
   instance and returns it with its branching variables and their
   domains; the other variables must be functions of these. *)
let count_solutions build =
  let rec go fixed =
    let cp, branch = build () in
    List.iter
      (fun (v, x) ->
        Cp.linear_le cp [ (1, v) ] x;
        Cp.linear_le cp [ (-1, v) ] (-x))
      fixed;
    if Cp.solve cp = None then 0
    else
      match List.nth_opt branch (List.length fixed) with
      | None -> 1
      | Some (v, values) -> List.fold_left (fun acc x -> acc + go (fixed @ [ (v, x) ])) 0 values
  in
  go []

(* ---------- n-queens ---------- *)

(* [d = q + off] as a table over q's domain 0..n-1 *)
let offset cp d q ~n off = Cp.table cp [ d; q ] (List.init n (fun x -> [| x + off; x |]))

let queens n =
  let cp = Cp.create () in
  let cols = Array.init n (fun _ -> Cp.range_var cp 0 (n - 1)) in
  Cp.all_different cp (Array.to_list cols);
  (* diagonals via offset variables: q_i + i and q_i - i + n all different *)
  let diag1 = Array.init n (fun _ -> Cp.range_var cp 0 (2 * n)) in
  let diag2 = Array.init n (fun _ -> Cp.range_var cp 0 (2 * n)) in
  Array.iteri (fun i d -> offset cp d cols.(i) ~n i) diag1;
  Array.iteri (fun i d -> offset cp d cols.(i) ~n (n - i)) diag2;
  Cp.all_different cp (Array.to_list diag1);
  Cp.all_different cp (Array.to_list diag2);
  (cp, Array.to_list (Array.map (fun q -> (q, List.init n Fun.id)) cols))

let test_queens_counts () =
  checki "4-queens" 2 (count_solutions (fun () -> queens 4));
  checki "5-queens" 10 (count_solutions (fun () -> queens 5));
  checki "6-queens" 4 (count_solutions (fun () -> queens 6))

let test_queens_solution_valid () =
  match Cp.solve (fst (queens 8)) with
  | None -> Alcotest.fail "8-queens should be satisfiable"
  | Some sol ->
      let q = Array.sub sol 0 8 in
      for i = 0 to 7 do
        for j = i + 1 to 7 do
          checkb "no attack" true (q.(i) <> q.(j) && abs (q.(i) - q.(j)) <> j - i)
        done
      done

(* ---------- individual constraints ---------- *)

let two_vars hi =
  let cp = Cp.create () in
  let x = Cp.range_var cp 0 hi and y = Cp.range_var cp 0 hi in
  (cp, x, y, [ (x, List.init (hi + 1) Fun.id); (y, List.init (hi + 1) Fun.id) ])

let test_linear_le_bounds () =
  let count =
    count_solutions (fun () ->
        let cp, x, y, branch = two_vars 9 in
        (* 2x + 3y <= 6 and x + y >= 2 (as -x -y <= -2) *)
        Cp.linear_le cp [ (2, x); (3, y) ] 6;
        Cp.linear_le cp [ (-1, x); (-1, y) ] (-2);
        (cp, branch))
  in
  (* enumerate by hand: (0,2) (2,0) (3,0) (1,... 2+3y<=4 -> y=0 no (sum<2 fails for (1,0)), y= (1,1): 2+3=5<=6 ok sum 2 ok *)
  let expected =
    List.length
      (List.concat_map
         (fun x ->
           List.filter (fun y -> (2 * x) + (3 * y) <= 6 && x + y >= 2) (List.init 10 Fun.id))
         (List.init 10 Fun.id))
  in
  checki "solution count" expected count

(* an equality posted as two opposite bounds: x + y = 5 over 0..5 *)
let test_linear_eq () =
  checki "x+y=5 over 0..5" 6
    (count_solutions (fun () ->
         let cp, x, y, branch = two_vars 5 in
         Cp.linear_le cp [ (1, x); (1, y) ] 5;
         Cp.linear_le cp [ (-1, x); (-1, y) ] (-5);
         (cp, branch)))

let test_table_constraint () =
  let rows x_min =
    count_solutions (fun () ->
        let cp, x, y, branch = two_vars 3 in
        Cp.table cp [ x; y ] [ [| 0; 1 |]; [| 1; 2 |]; [| 2; 3 |] ];
        Cp.linear_le cp [ (-1, x) ] (-x_min);
        (cp, branch))
  in
  checki "table rows" 3 (rows 0);
  (* add x >= 1: two rows left *)
  checki "filtered" 2 (rows 1)

let test_all_different_pigeonhole () =
  let cp = Cp.create () in
  let vars = List.init 4 (fun _ -> Cp.range_var cp 0 2) in
  Cp.all_different cp vars;
  checkb "4 pigeons, 3 holes" true (Cp.solve cp = None)

(* ---------- random binary CSPs vs brute force ---------- *)

let qcheck_random_csp =
  QCheck.Test.make ~name:"random binary CSPs agree with brute force" ~count:150
    QCheck.(pair small_int (int_range 2 5))
    (fun (seed, n) ->
      let rng = Rng.create (seed * 7) in
      let dom = 1 + Rng.int rng 4 in
      (* random forbidden pairs between random variable pairs *)
      let constraints =
        List.init (1 + Rng.int rng 6) (fun _ ->
            let a = Rng.int rng n and b = Rng.int rng n in
            if a = b then None
            else
              Some
                ( a,
                  b,
                  List.filter
                    (fun (_, _) -> true)
                    (List.concat_map
                       (fun x ->
                         List.filter_map
                           (fun y -> if Rng.float rng 1.0 < 0.5 then Some (x, y) else None)
                           (List.init dom Fun.id))
                       (List.init dom Fun.id)) ))
        |> List.filter_map Fun.id
      in
      let build () =
        let cp = Cp.create () in
        let vars = Array.init n (fun _ -> Cp.range_var cp 0 (dom - 1)) in
        List.iter
          (fun (a, b, allowed) ->
            Cp.table cp [ vars.(a); vars.(b) ] (List.map (fun (x, y) -> [| x; y |]) allowed))
          constraints;
        (cp, Array.to_list (Array.map (fun v -> (v, List.init dom Fun.id)) vars))
      in
      (* brute force count *)
      let rec brute assignment i =
        if i = n then begin
          let ok =
            List.for_all
              (fun (a, b, allowed) -> List.mem (assignment.(a), assignment.(b)) allowed)
              constraints
          in
          if ok then 1 else 0
        end
        else begin
          let total = ref 0 in
          for v = 0 to dom - 1 do
            assignment.(i) <- v;
            total := !total + brute assignment (i + 1)
          done;
          !total
        end
      in
      let expected = brute (Array.make n 0) 0 in
      count_solutions build = expected)

let () =
  Alcotest.run "cp"
    [
      ( "queens",
        [
          Alcotest.test_case "solution counts" `Quick test_queens_counts;
          Alcotest.test_case "8-queens valid" `Quick test_queens_solution_valid;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "linear_eq" `Quick test_linear_eq;
          Alcotest.test_case "linear_le" `Quick test_linear_le_bounds;
          Alcotest.test_case "table" `Quick test_table_constraint;
          Alcotest.test_case "all_different pigeonhole" `Quick test_all_different_pigeonhole;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest qcheck_random_csp ]);
    ]
