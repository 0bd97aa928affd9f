(* LP / ILP solver tests: textbook instances, brute-force agreement on
   random binary programs, knapsack. *)

module Lp = Ocgra_ilp.Lp
module Ilp = Ocgra_ilp.Ilp
module Model = Ocgra_ilp.Model
module Rng = Ocgra_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-4)

let test_lp_basic () =
  (* max 3x + 2y st x + y <= 4; x + 3y <= 6 -> x=4, y=0, value 12 *)
  let p =
    {
      Lp.n = 2;
      maximize = true;
      objective = [| 3.0; 2.0 |];
      rows = [ ([| 1.0; 1.0 |], Lp.Le, 4.0); ([| 1.0; 3.0 |], Lp.Le, 6.0) ];
    }
  in
  match Lp.solve p with
  | Lp.Optimal { value; solution } ->
      checkf "value" 12.0 value;
      checkf "x" 4.0 solution.(0);
      checkf "y" 0.0 solution.(1)
  | _ -> Alcotest.fail "expected optimal"

let test_lp_degenerate_min () =
  (* min x + y st x + y >= 2; x <= 5 -> value 2 *)
  let p =
    {
      Lp.n = 2;
      maximize = false;
      objective = [| 1.0; 1.0 |];
      rows = [ ([| 1.0; 1.0 |], Lp.Ge, 2.0); ([| 1.0; 0.0 |], Lp.Le, 5.0) ];
    }
  in
  match Lp.solve p with
  | Lp.Optimal { value; _ } -> checkf "value" 2.0 value
  | _ -> Alcotest.fail "expected optimal"

let test_lp_infeasible () =
  let p =
    {
      Lp.n = 1;
      maximize = true;
      objective = [| 1.0 |];
      rows = [ ([| 1.0 |], Lp.Ge, 3.0); ([| 1.0 |], Lp.Le, 2.0) ];
    }
  in
  checkb "infeasible" true (Lp.solve p = Lp.Infeasible)

let test_lp_unbounded () =
  let p = { Lp.n = 1; maximize = true; objective = [| 1.0 |]; rows = [] } in
  checkb "unbounded" true (Lp.solve p = Lp.Unbounded)

let test_lp_equality () =
  (* max x st x + y = 3; y >= 1 modeled as -y <= -1 -> x = 2 *)
  let p =
    {
      Lp.n = 2;
      maximize = true;
      objective = [| 1.0; 0.0 |];
      rows = [ ([| 1.0; 1.0 |], Lp.Eq, 3.0); ([| 0.0; 1.0 |], Lp.Ge, 1.0) ];
    }
  in
  match Lp.solve p with
  | Lp.Optimal { value; _ } -> checkf "value" 2.0 value
  | _ -> Alcotest.fail "expected optimal"

let test_knapsack () =
  (* values 10,13,7,8; weights 5,7,4,3; cap 10 -> best = 13+8=21 (w=10) *)
  let m = Model.create ~maximize:true () in
  let xs = List.init 4 (fun _ -> Model.binary m) in
  let values = [ 10.0; 13.0; 7.0; 8.0 ] and weights = [ 5.0; 7.0; 4.0; 3.0 ] in
  Model.set_objective m (List.map2 (fun v x -> (v, x)) values xs);
  Model.add_constraint m (List.map2 (fun w x -> (w, x)) weights xs) Lp.Le 10.0;
  match Model.solve m with
  | Model.Optimal value, Some _, _ -> checkf "knapsack" 21.0 value
  | _ -> Alcotest.fail "expected optimal"

(* brute force 0/1 programs *)
let brute_force_binary ~n ~maximize ~objective ~rows =
  let best = ref None in
  for mask = 0 to (1 lsl n) - 1 do
    let x = Array.init n (fun j -> if mask land (1 lsl j) <> 0 then 1.0 else 0.0) in
    let feasible =
      List.for_all
        (fun (coeffs, rel, b) ->
          let lhs = ref 0.0 in
          Array.iteri (fun j c -> lhs := !lhs +. (c *. x.(j))) coeffs;
          match rel with
          | Lp.Le -> !lhs <= b +. 1e-9
          | Lp.Ge -> !lhs >= b -. 1e-9
          | Lp.Eq -> Float.abs (!lhs -. b) < 1e-9)
        rows
    in
    if feasible then begin
      let v = ref 0.0 in
      Array.iteri (fun j xv -> v := !v +. (objective.(j) *. xv)) x;
      match !best with
      | None -> best := Some !v
      | Some b -> if maximize then best := Some (max b !v) else best := Some (min b !v)
    end
  done;
  !best

let qcheck_binary_programs =
  QCheck.Test.make ~name:"random binary programs agree with brute force" ~count:150
    QCheck.(pair (int_bound 1_000_000) (int_range 2 7))
    (fun (seed, n) ->
      let rng = Rng.create ((seed * 31) + n) in
      let nrows = 1 + Rng.int rng 5 in
      let objective = Array.init n (fun _ -> float_of_int (Rng.int_in rng (-5) 9)) in
      let rows =
        List.init nrows (fun _ ->
            let coeffs = Array.init n (fun _ -> float_of_int (Rng.int_in rng (-3) 6)) in
            let rel = if Rng.bool rng then Lp.Le else Lp.Ge in
            let b = float_of_int (Rng.int_in rng (-2) 8) in
            (coeffs, rel, b))
      in
      let maximize = Rng.bool rng in
      (* binary bounds as rows *)
      let bound_rows =
        List.init n (fun j ->
            let c = Array.make n 0.0 in
            c.(j) <- 1.0;
            (c, Lp.Le, 1.0))
      in
      let p =
        {
          Ilp.lp = { Lp.n; maximize; objective; rows = rows @ bound_rows };
          kinds = Array.make n Ilp.Integer;
        }
      in
      let expected = brute_force_binary ~n ~maximize ~objective ~rows in
      match
        ( fst
            (Ilp.solve ~max_nodes:20000
               ~should_stop:(Ocgra_core.Deadline.should_stop (Ocgra_core.Deadline.after ~seconds:5.0))
               p),
          expected )
      with
      | Ilp.Optimal { value; _ }, Some e -> Float.abs (value -. e) < 1e-4
      | Ilp.Infeasible, None -> true
      | Ilp.Optimal _, None -> false
      | Ilp.Infeasible, Some _ -> false
      | (Ilp.Feasible _ | Ilp.Limit | Ilp.Unbounded), _ -> QCheck.assume_fail ())

let () =
  Alcotest.run "ilp"
    [
      ( "lp",
        [
          Alcotest.test_case "basic max" `Quick test_lp_basic;
          Alcotest.test_case "degenerate min" `Quick test_lp_degenerate_min;
          Alcotest.test_case "infeasible" `Quick test_lp_infeasible;
          Alcotest.test_case "unbounded" `Quick test_lp_unbounded;
          Alcotest.test_case "equality" `Quick test_lp_equality;
        ] );
      ( "ilp",
        [
          Alcotest.test_case "knapsack" `Quick test_knapsack;
          QCheck_alcotest.to_alcotest qcheck_binary_programs;
        ] );
    ]
