(* Control-flow mapping tests: the four predication schemes are
   semantically equivalent, their cost ordering matches the literature,
   hardware-loop arithmetic, and host-managed CDFG execution. *)

module Pred = Ocgra_cf.Predication
module Hw = Ocgra_cf.Hw_loop
module Host = Ocgra_cf.Host_exec
module P = Ocgra_dfg.Prog_ast
module Op = Ocgra_dfg.Op
module Eval = Ocgra_dfg.Eval

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let clip_ite =
  {
    Pred.cond = P.Bin (Op.Lt, P.Int 127, P.Var "x");
    then_branch = [ ("y", P.Int 127) ];
    else_branch = [ ("y", P.Bin (Op.Add, P.Bin (Op.Mul, P.Var "x", P.Int 3), P.Int 1)) ];
  }

let two_var_ite =
  {
    Pred.cond = P.Bin (Op.Lt, P.Var "x", P.Int 0);
    then_branch = [ ("y", P.Neg (P.Var "x")); ("s", P.Int (-1)) ];
    else_branch = [ ("y", P.Var "x"); ("s", P.Int 1) ];
  }

let schemes ite = List.map (fun (scheme, _, _, _) -> scheme) (Pred.compare_schemes ite)

let dfg_of scheme ite =
  let _, dfg, _, _ = List.find (fun (s, _, _, _) -> s = scheme) (Pred.compare_schemes ite) in
  dfg

(* the variables the region assigns, sorted: every scheme emits these *)
let assigned ite =
  List.sort_uniq compare (List.map fst (ite.Pred.then_branch @ ite.Pred.else_branch))

let eval_scheme scheme ite xs =
  let dfg = dfg_of scheme ite in
  Alcotest.(check (list string)) "valid dfg" [] (Ocgra_dfg.Dfg.validate dfg);
  let env = Eval.env_of_streams [ ("x", xs) ] in
  let r = Eval.run dfg env ~iters:(Array.length xs) in
  List.map (fun v -> (v, Eval.output_stream r v)) (assigned ite)

let test_schemes_agree () =
  let xs = [| 0; 100; 127; 128; 500; -3 |] in
  List.iter
    (fun ite ->
      let reference = eval_scheme Pred.Full_predication ite xs in
      List.iter
        (fun scheme ->
          Alcotest.(check (list (pair string (list int))))
            (Pred.scheme_to_string scheme ^ " agrees")
            reference (eval_scheme scheme ite xs))
        (schemes ite))
    [ clip_ite; two_var_ite ]

let test_clip_semantics () =
  let outputs = eval_scheme Pred.Dual_issue clip_ite [| 0; 200 |] in
  Alcotest.(check (list int)) "clip values" [ 1; 127 ] (List.assoc "y" outputs)

let test_scheme_cost_ordering () =
  (* dual-issue never uses more ops than full predication; partial
     predication (CSE across branches) never more than full *)
  List.iter
    (fun ite ->
      let count scheme =
        let _, _, ops, _ = List.find (fun (s, _, _, _) -> s = scheme) (Pred.compare_schemes ite) in
        ops
      in
      checkb "dual <= full" true (count Pred.Dual_issue <= count Pred.Full_predication);
      checkb "partial <= full" true
        (count Pred.Partial_predication <= count Pred.Full_predication);
      checkb "direct >= full" true (count Pred.Direct_cdfg >= count Pred.Full_predication))
    [ clip_ite; two_var_ite ]

let test_merged_vars () =
  List.iter
    (fun (scheme, dfg, _, _) ->
      let emitted =
        Ocgra_dfg.Dfg.fold_nodes
          (fun nd acc -> match nd.Ocgra_dfg.Dfg.op with Op.Output v -> v :: acc | _ -> acc)
          dfg []
      in
      Alcotest.(check (list string))
        (Pred.scheme_to_string scheme ^ " merges")
        [ "s"; "y" ] (List.sort compare emitted))
    (Pred.compare_schemes two_var_ite)

(* ---------- hardware loops ---------- *)

let test_hw_loop_cycles () =
  let m = Hw.default_overhead in
  (* one iteration: hw pays fill only once *)
  let host1 = Hw.host_managed_cycles m ~schedule_length:5 ~iters:1 in
  let hw1 = Hw.hw_loop_cycles m ~ii:2 ~schedule_length:5 ~iters:1 in
  checkb "single iteration cheaper in hw" true (hw1 <= host1);
  (* speedup grows with the trip count *)
  let speedup iters =
    float_of_int (Hw.host_managed_cycles m ~schedule_length:5 ~iters)
    /. float_of_int (Hw.hw_loop_cycles m ~ii:2 ~schedule_length:5 ~iters)
  in
  let s16 = speedup 16 and s256 = speedup 256 in
  checkb "speedup grows" true (s256 > s16);
  (* asymptote: host per-iter cost / ii *)
  checkb "bounded by per-iter ratio" true
    (s256 < float_of_int (m.Hw.host_issue_cycles + m.Hw.config_fetch_cycles + 5 + m.Hw.host_control_cycles) /. 2.0 +. 1.0)

(* the smallest trip count where the hardware loop wins is the first *)
let test_break_even () =
  let m = Hw.default_overhead in
  let wins iters =
    Hw.hw_loop_cycles m ~ii:2 ~schedule_length:6 ~iters
    < Hw.host_managed_cycles m ~schedule_length:6 ~iters
  in
  match List.find_opt wins (List.init 1000 succ) with
  | Some n -> checkb "immediate win" true (n = 1)
  | None -> Alcotest.fail "break-even exists"

let test_nested_loops () =
  let m = Hw.default_overhead in
  let nested = Hw.nested_hw_cycles m ~ii:2 ~schedule_length:6 ~inner:10 ~outer:10 in
  let inner_only = Hw.inner_only_cycles m ~ii:2 ~schedule_length:6 ~inner:10 ~outer:10 in
  checkb "two-level support wins" true (nested < inner_only)

(* ---------- host-managed execution ---------- *)

let test_host_exec_trace () =
  let prog =
    [
      P.Assign ("s", P.Int 0);
      P.For ("i", P.Int 0, P.Int 3, [ P.Assign ("s", P.Bin (Op.Add, P.Var "s", P.Var "i")) ]);
      P.Emit ("out", P.Var "s");
    ]
  in
  let cdfg = Ocgra_dfg.Prog.to_cdfg prog in
  let trace, outputs, vars = Host.interpret cdfg ~memory:[] in
  (* entry + (header+body)*3 + header + exit = 9 blocks *)
  checki "trace length" 9 (List.length trace);
  checki "s = 0+1+2" 3 (Hashtbl.find vars "s");
  Alcotest.(check (list int)) "emitted" [ 3 ] (Hashtbl.find outputs "out");
  let plan = Host.make_plan cdfg in
  checkb "trace cost positive" true (Host.trace_cost plan trace > 0)

let test_host_exec_branches () =
  let prog =
    [
      P.Assign ("x", P.Int 10);
      P.If
        ( P.Bin (Op.Lt, P.Var "x", P.Int 5),
          [ P.Assign ("y", P.Int 1) ],
          [ P.Assign ("y", P.Int 2) ] );
      P.Emit ("y", P.Var "y");
    ]
  in
  let cdfg = Ocgra_dfg.Prog.to_cdfg prog in
  let _, outputs, _ = Host.interpret cdfg ~memory:[] in
  Alcotest.(check (list int)) "else branch taken" [ 2 ] (Hashtbl.find outputs "y")

let test_host_exec_memory () =
  let prog =
    [
      P.For ("i", P.Int 0, P.Int 4, [ P.Write ("dst", P.Var "i", P.Bin (Op.Mul, P.Var "i", P.Var "i")) ]);
    ]
  in
  let cdfg = Ocgra_dfg.Prog.to_cdfg prog in
  let memory = [ ("dst", Array.make 4 0) ] in
  (* interpret copies memory; re-run with a shared reference to check writes *)
  let _, _, _ = Host.interpret cdfg ~memory in
  (* the interpreter copies arrays, so we verify through a fresh run's trace *)
  let trace, _, vars = Host.interpret cdfg ~memory in
  checkb "loop ran" true (List.length trace > 4);
  checki "i ended at 4" 4 (Hashtbl.find vars "i")

let () =
  Alcotest.run "cf"
    [
      ( "predication",
        [
          Alcotest.test_case "schemes agree semantically" `Quick test_schemes_agree;
          Alcotest.test_case "clip semantics" `Quick test_clip_semantics;
          Alcotest.test_case "cost ordering" `Quick test_scheme_cost_ordering;
          Alcotest.test_case "merged vars" `Quick test_merged_vars;
        ] );
      ( "hardware loops",
        [
          Alcotest.test_case "cycle model" `Quick test_hw_loop_cycles;
          Alcotest.test_case "break even" `Quick test_break_even;
          Alcotest.test_case "nested" `Quick test_nested_loops;
        ] );
      ( "host execution",
        [
          Alcotest.test_case "loop trace" `Quick test_host_exec_trace;
          Alcotest.test_case "branch" `Quick test_host_exec_branches;
          Alcotest.test_case "memory loop" `Quick test_host_exec_memory;
        ] );
    ]
