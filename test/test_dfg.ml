(* DFG / front-end / middle-end tests: structure validation, schedule
   bounds, the interpreter, the mini-language lowering, and semantic
   preservation of the transformation passes. *)

open Ocgra_dfg
module Rng = Ocgra_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---------- structure ---------- *)

let test_validate_good () =
  let g = Dfg.create () in
  let a = Dfg.input g "a" in
  let b = Dfg.const g 3 in
  let s = Dfg.binop g Op.Add a b in
  ignore (Dfg.output g "out" s);
  Alcotest.(check (list string)) "valid" [] (Dfg.validate g)

let test_validate_missing_operand () =
  let g = Dfg.create () in
  let _ = Dfg.add g (Op.Binop Op.Add) in
  checkb "invalid" true (Dfg.validate g <> [])

let test_validate_duplicate_producer () =
  let g = Dfg.create () in
  let a = Dfg.const g 1 and b = Dfg.const g 2 in
  let n = Dfg.add g Op.Not in
  Dfg.add_edge g ~src:a ~dst:n ~port:0;
  Dfg.add_edge g ~src:b ~dst:n ~port:0;
  checkb "invalid" true (Dfg.validate g <> [])

let test_validate_bad_port () =
  let g = Dfg.create () in
  let a = Dfg.const g 1 in
  let n = Dfg.unop g Op.Not a in
  Dfg.add_edge g ~src:a ~dst:n ~port:5;
  checkb "invalid" true (Dfg.validate g <> [])

(* ---------- schedule bounds ---------- *)

let test_asap_alap () =
  let g = Dfg.create () in
  let a = Dfg.input g "a" in
  let b = Dfg.input g "b" in
  let c = Dfg.input g "c" in
  let m = Dfg.binop g Op.Mul a b in
  let s = Dfg.binop g Op.Add m c in
  ignore (Dfg.output g "o" s);
  let asap = Dfg.asap g in
  checki "a" 0 asap.(a);
  checki "m" 1 asap.(m);
  checki "s" 2 asap.(s);
  checki "critical path" 3 (Dfg.critical_path g)

let test_rec_mii_kernels () =
  checki "dot product" 1 (Dfg.rec_mii (Ocgra_workloads.Kernels.dot_product ()).dfg);
  checki "horner" 2 (Dfg.rec_mii (Ocgra_workloads.Kernels.find "horner").dfg);
  checki "iir2" 3 (Dfg.rec_mii (Ocgra_workloads.Kernels.iir2 ()).dfg);
  checki "saxpy (dag)" 1 (Dfg.rec_mii (Ocgra_workloads.Kernels.saxpy ()).dfg)

(* ---------- interpreter ---------- *)

let test_eval_dot_product () =
  let k = Ocgra_workloads.Kernels.dot_product () in
  let r = Ocgra_workloads.Kernels.eval_reference k ~iters:4 in
  (* a = 1,2,3,4; b = -3,-1,1,3 -> partial sums: -3, -5, -2, 10 *)
  Alcotest.(check (list int)) "sums" [ -3; -5; -2; 10 ] (Eval.output_stream r "sum")

let test_eval_select_and_init () =
  let k = Ocgra_workloads.Kernels.find "running-max" in
  let r = Ocgra_workloads.Kernels.eval_reference k ~iters:6 in
  let stream = Eval.output_stream r "max" in
  (* the stream is the running maximum: non-decreasing *)
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  checkb "monotone" true (nondecreasing stream)

let test_eval_memory () =
  let k = Ocgra_workloads.Kernels.find "prefix-sum" in
  let r = Ocgra_workloads.Kernels.eval_reference k ~iters:5 in
  let acc = Eval.output_stream r "acc" in
  checki "length" 5 (List.length acc)

(* ---------- mini-language lowering ---------- *)

let test_cdfg_structure () =
  let module P = Prog_ast in
  let prog =
    [
      P.Assign ("s", P.Int 0);
      P.For ("i", P.Int 0, P.Int 4, [ P.Assign ("s", P.Bin (Op.Add, P.Var "s", P.Var "i")) ]);
      P.Emit ("s", P.Var "s");
    ]
  in
  let cdfg = Prog.to_cdfg prog in
  (* entry, header, body, exit *)
  checki "blocks" 4 (List.length (Cdfg.blocks cdfg));
  let header = Cdfg.block cdfg 1 in
  (match header.term with
  | Cdfg.Branch _ -> ()
  | _ -> Alcotest.fail "header should branch")

let test_loop_body_dfg_semantics () =
  let module P = Prog_ast in
  (* sum += i*i with ivar i, 5 iterations: 0+1+4+9+16 = 30 *)
  let kernel =
    Prog.loop_body_dfg ~init:[ ("sum", 0) ] ~ivar:"i" ~lo:0
      [
        P.Assign ("sum", P.Bin (Op.Add, P.Var "sum", P.Bin (Op.Mul, P.Var "i", P.Var "i")));
        P.Emit ("sum", P.Var "sum");
      ]
  in
  Alcotest.(check (list string)) "valid" [] (Dfg.validate kernel.Prog.dfg);
  let env = Eval.env_of_streams [] in
  let r = Eval.run ~init:kernel.Prog.init kernel.Prog.dfg env ~iters:5 in
  Alcotest.(check (list int)) "partial sums" [ 0; 1; 5; 14; 30 ] (Eval.output_stream r "sum")

let test_loop_body_if_conversion () =
  let module P = Prog_ast in
  (* y = (i < 3) ? i : 10 emitted each iteration *)
  let kernel =
    Prog.loop_body_dfg ~ivar:"i" ~lo:0
      [
        P.If (P.Bin (Op.Lt, P.Var "i", P.Int 3), [ P.Assign ("y", P.Var "i") ], [ P.Assign ("y", P.Int 10) ]);
        P.Emit ("y", P.Var "y");
      ]
  in
  let env = Eval.env_of_streams [] in
  let r = Eval.run ~init:kernel.Prog.init kernel.Prog.dfg env ~iters:5 in
  Alcotest.(check (list int)) "selected" [ 0; 1; 2; 10; 10 ] (Eval.output_stream r "y")

let test_block_dfg () =
  let module P = Prog_ast in
  let cdfg = Prog.to_cdfg [ P.Assign ("x", P.Bin (Op.Add, P.Var "a", P.Int 1)); P.Emit ("o", P.Var "x") ] in
  let b0 = Cdfg.block cdfg 0 in
  let dfg = Prog.block_dfg b0 in
  Alcotest.(check (list string)) "valid" [] (Dfg.validate dfg);
  (* has Input a and Outputs for x *)
  let has_input =
    Dfg.fold_nodes (fun nd acc -> acc || nd.Dfg.op = Op.Input "a") dfg false
  in
  checkb "live-in a" true has_input

(* ---------- transformation passes preserve semantics ---------- *)

let eval_outputs dfg ~init streams iters =
  let env = Eval.env_of_streams streams in
  let r = Eval.run ~init dfg env ~iters in
  List.sort compare
    (Hashtbl.fold (fun name _ acc -> (name, Eval.output_stream r name) :: acc) r.Eval.outputs [])

let qcheck_passes_preserve_semantics =
  QCheck.Test.make ~name:"cse/dce/constfold preserve interpreter semantics" ~count:60
    QCheck.(pair small_int (int_range 6 20))
    (fun (seed, n) ->
      let rng = Rng.create (seed + 1) in
      let params = { Ocgra_workloads.Random_dfg.default with nodes = n } in
      let dfg, streams = Ocgra_workloads.Random_dfg.generate ~params rng in
      let iters = 5 in
      let before = eval_outputs dfg ~init:(fun _ -> 0) (streams iters) iters in
      let passes = [ Transform.cse; Transform.dce ] in
      List.for_all
        (fun pass ->
          let dfg' = pass dfg in
          Dfg.validate dfg' = []
          && eval_outputs dfg' ~init:(fun _ -> 0) (streams iters) iters = before)
        passes)

let test_dce_removes_dead () =
  let g = Dfg.create () in
  let a = Dfg.input g "a" in
  let _dead = Dfg.binop g Op.Add a a in
  let live = Dfg.unop g Op.Neg a in
  ignore (Dfg.output g "o" live);
  let g' = Transform.dce g in
  checki "dead removed" 3 (Dfg.node_count g')

let test_cse_merges () =
  let g = Dfg.create () in
  let a = Dfg.input g "a" in
  let x = Dfg.binop g Op.Add a a in
  let y = Dfg.binop g Op.Add a a in
  ignore (Dfg.output g "o1" x);
  ignore (Dfg.output g "o2" y);
  let g' = Transform.cse g in
  (* one input, one add, two outputs *)
  checki "merged" 4 (Dfg.node_count g')

let qcheck_unroll_structure =
  QCheck.Test.make ~name:"unroll multiplies nodes and preserves validity" ~count:50
    QCheck.(pair small_int (int_range 2 4))
    (fun (seed, u) ->
      let rng = Rng.create (seed + 7) in
      let params = { Ocgra_workloads.Random_dfg.default with nodes = 10 } in
      let dfg, _ = Ocgra_workloads.Random_dfg.generate ~params rng in
      let unrolled = Transform.unroll dfg u in
      Dfg.validate unrolled = []
      && Dfg.node_count unrolled = u * Dfg.node_count dfg
      && Dfg.edge_count unrolled = u * Dfg.edge_count dfg
      && Dfg.is_acyclic unrolled)

let test_unroll_semantics () =
  let k = Ocgra_workloads.Kernels.dot_product () in
  let u = Transform.unroll k.dfg 2 in
  Alcotest.(check (list string)) "valid" [] (Dfg.validate u);
  (* evaluating the unrolled body for 2 macro-iterations covers 4
     original iterations; the even-indexed outputs of the original are
     sum.0, odd are sum.1 *)
  let orig = Ocgra_workloads.Kernels.eval_reference k ~iters:4 in
  let orig_sums = Eval.output_stream orig "sum" in
  let streams =
    [ ("a.0", [| 1; 3 |]); ("a.1", [| 2; 4 |]); ("b.0", [| -3; 1 |]); ("b.1", [| -1; 3 |]) ]
  in
  let env = Eval.env_of_streams streams in
  let r = Eval.run u env ~iters:2 in
  let got =
    List.concat
      (List.map2
         (fun a b -> [ a; b ])
         (Eval.output_stream r "sum.0")
         (Eval.output_stream r "sum.1"))
  in
  Alcotest.(check (list int)) "interleaved sums" orig_sums got

let () =
  Alcotest.run "dfg"
    [
      ( "structure",
        [
          Alcotest.test_case "valid graph" `Quick test_validate_good;
          Alcotest.test_case "missing operand" `Quick test_validate_missing_operand;
          Alcotest.test_case "duplicate producer" `Quick test_validate_duplicate_producer;
          Alcotest.test_case "bad port" `Quick test_validate_bad_port;
        ] );
      ( "schedule bounds",
        [
          Alcotest.test_case "asap/alap/mobility" `Quick test_asap_alap;
          Alcotest.test_case "recmii kernels" `Quick test_rec_mii_kernels;
        ] );
      ( "interpreter",
        [
          Alcotest.test_case "dot product" `Quick test_eval_dot_product;
          Alcotest.test_case "select + init" `Quick test_eval_select_and_init;
          Alcotest.test_case "memory ops" `Quick test_eval_memory;
        ] );
      ( "front-end",
        [
          Alcotest.test_case "cdfg structure" `Quick test_cdfg_structure;
          Alcotest.test_case "loop-body semantics" `Quick test_loop_body_dfg_semantics;
          Alcotest.test_case "if-conversion" `Quick test_loop_body_if_conversion;
          Alcotest.test_case "block dfg" `Quick test_block_dfg;
        ] );
      ( "middle-end",
        [
          QCheck_alcotest.to_alcotest qcheck_passes_preserve_semantics;
          Alcotest.test_case "dce" `Quick test_dce_removes_dead;
          Alcotest.test_case "cse" `Quick test_cse_merges;
          Alcotest.test_case "unroll semantics" `Quick test_unroll_semantics;
          QCheck_alcotest.to_alcotest qcheck_unroll_structure;
        ] );
    ]
