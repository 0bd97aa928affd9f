(* End-to-end integration: mini-language source -> middle-end passes ->
   mapping -> configuration contexts -> cycle-accurate simulation, all
   checked against the interpreter; plus the predication and
   architecture-class flows. *)

module P = Ocgra_dfg.Prog_ast
module Op = Ocgra_dfg.Op
module Dfg = Ocgra_dfg.Dfg
module Prog = Ocgra_dfg.Prog
module Eval = Ocgra_dfg.Eval
module Rng = Ocgra_util.Rng

let checkb = Alcotest.check Alcotest.bool

let cgra44 = Ocgra_arch.Cgra.uniform ~rows:4 ~cols:4 ()

(* Full flow: source -> kernel DFG -> CSE/DCE -> map -> simulate. *)
let test_source_to_cycles () =
  let body =
    [
      P.Assign ("t", P.Bin (Op.Mul, P.Read ("A", P.Var "i"), P.Read ("A", P.Var "i")));
      P.Assign ("acc", P.Bin (Op.Add, P.Var "acc", P.Var "t"));
      P.Emit ("acc", P.Var "acc");
    ]
  in
  let kernel = Prog.loop_body_dfg ~init:[ ("acc", 0) ] ~ivar:"i" ~lo:0 body in
  let dfg = Ocgra_dfg.Transform.dce (Ocgra_dfg.Transform.cse kernel.Prog.dfg) in
  Alcotest.(check (list string)) "valid after passes" [] (Dfg.validate dfg);
  (* note: passes drop dead nodes, so re-derive init conservatively: the
     only carried values are acc (init 0) and i (init 0) *)
  let p = Ocgra_core.Problem.temporal ~init:(fun _ -> 0) ~dfg ~cgra:cgra44 () in
  match Ocgra_mappers.Constructive.map p (Rng.create 9) with
  | None, _, _ -> Alcotest.fail "sum-of-squares should map"
  | Some m, _, _ ->
      Alcotest.(check (list string)) "mapping valid" [] (Ocgra_core.Check.validate p m);
      let iters = 6 in
      let memory = [ ("A", Array.init 16 (fun i -> i - 2)) ] in
      let streams = [ ("i", Array.init iters (fun i -> i)) ] in
      let io = Ocgra_sim.Machine.io_of_streams ~memory streams in
      let result = Ocgra_sim.Machine.run p m io ~iters in
      let env = Eval.env_of_streams ~memory streams in
      let reference = Eval.run ~init:(fun _ -> 0) dfg env ~iters in
      Alcotest.(check (list int)) "acc stream"
        (Eval.output_stream reference "acc")
        (Ocgra_sim.Machine.output_stream result "acc")

(* Predicated branch through the whole flow. *)
let test_predicated_branch_flow () =
  let ite =
    {
      Ocgra_cf.Predication.cond = P.Bin (Op.Lt, P.Var "x", P.Int 0);
      then_branch = [ ("y", P.Neg (P.Var "x")) ];
      else_branch = [ ("y", P.Var "x") ];
    }
  in
  List.iter
    (fun (scheme, dfg, _, _) ->
      let p = Ocgra_core.Problem.temporal ~dfg ~cgra:cgra44 () in
      match Ocgra_mappers.Constructive.map p (Rng.create 4) with
      | None, _, _ ->
          Alcotest.fail (Ocgra_cf.Predication.scheme_to_string scheme ^ " should map")
      | Some m, _, _ ->
          let iters = 6 in
          let xs = [| 3; -4; 0; -1; 7; -9 |] in
          let io = Ocgra_sim.Machine.io_of_streams [ ("x", xs) ] in
          let result = Ocgra_sim.Machine.run p m io ~iters in
          Alcotest.(check (list int))
            (Ocgra_cf.Predication.scheme_to_string scheme ^ " |x|")
            [ 3; 4; 0; 1; 7; 9 ]
            (Ocgra_sim.Machine.output_stream result "y"))
    (Ocgra_cf.Predication.compare_schemes ite)

(* Heterogeneous array: memory ops confined to the first column. *)
let test_heterogeneous_flow () =
  let k = Ocgra_workloads.Kernels.sobel_row () in
  let cgra = Ocgra_arch.Cgra.adres_like ~rows:4 ~cols:4 () in
  let p = Ocgra_core.Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra ~max_ii:16 () in
  match Ocgra_mappers.Constructive.map ~restarts:16 p (Rng.create 6) with
  | None, _, _ -> Alcotest.fail "sobel maps on adres-like"
  | Some m, _, _ ->
      (* every memory op sits in column 0 *)
      Dfg.iter_nodes
        (fun nd ->
          match nd.Dfg.op with
          | Op.Load _ | Op.Store _ | Op.Input _ | Op.Output _ ->
              let pe, _ = m.Ocgra_core.Mapping.binding.(nd.id) in
              let _, col = Ocgra_arch.Cgra.coords cgra pe in
              Alcotest.(check int) "mem/io in column 0" 0 col
          | _ -> ())
        k.dfg;
      let iters = 8 in
      let io = Ocgra_sim.Machine.io_of_streams ~memory:k.memory (k.inputs iters) in
      let result = Ocgra_sim.Machine.run p m io ~iters in
      let reference = Ocgra_workloads.Kernels.eval_reference k ~iters in
      Alcotest.(check (list int)) "edge stream"
        (Eval.output_stream reference "edge")
        (Ocgra_sim.Machine.output_stream result "edge")

(* Spatial pipeline end-to-end on a balanced kernel. *)
let test_spatial_flow () =
  let k = Ocgra_workloads.Kernels.saxpy () in
  let cgra = Ocgra_arch.Cgra.uniform ~topology:Ocgra_arch.Topology.Diagonal ~rows:4 ~cols:4 () in
  let p = Ocgra_core.Problem.spatial ~init:k.init ~dfg:k.dfg ~cgra () in
  match Ocgra_mappers.Constructive.map ~restarts:24 p (Rng.create 2) with
  | None, _, _ -> Alcotest.fail "saxpy spatial"
  | Some m, _, _ ->
      checkb "ii is 1" true (m.Ocgra_core.Mapping.ii = 1);
      (* every PE used at most once overall *)
      let used = Hashtbl.create 16 in
      Array.iter
        (fun (pe, _) ->
          checkb "one op per PE" false (Hashtbl.mem used pe);
          Hashtbl.replace used pe ())
        m.Ocgra_core.Mapping.binding;
      let iters = 10 in
      let io = Ocgra_sim.Machine.io_of_streams ~memory:k.memory (k.inputs iters) in
      let result = Ocgra_sim.Machine.run p m io ~iters in
      let reference = Ocgra_workloads.Kernels.eval_reference k ~iters in
      Alcotest.(check (list int)) "spatial saxpy"
        (Eval.output_stream reference "out")
        (Ocgra_sim.Machine.output_stream result "out")

(* Contexts of a mapped kernel round-trip through the bit encoding. *)
let test_contexts_bit_roundtrip () =
  let k = Ocgra_workloads.Kernels.find "matvec2" in
  let p = Ocgra_core.Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 () in
  match Ocgra_mappers.Constructive.map p (Rng.create 3) with
  | None, _, _ -> Alcotest.fail "matvec2 maps"
  | Some m, _, _ ->
      let build = Ocgra_core.Contexts.of_mapping p m in
      let words = Ocgra_core.Contexts.encode build in
      Array.iteri
        (fun c row ->
          Array.iteri
            (fun pe w ->
              checkb "slot roundtrip" true
                (Word_layout.decode_slot w = build.Ocgra_core.Contexts.contexts.(c).(pe)))
            row)
        words

let () =
  Alcotest.run "integration"
    [
      ( "flows",
        [
          Alcotest.test_case "source to cycles" `Quick test_source_to_cycles;
          Alcotest.test_case "predicated branch" `Quick test_predicated_branch_flow;
          Alcotest.test_case "heterogeneous array" `Quick test_heterogeneous_flow;
          Alcotest.test_case "spatial pipeline" `Quick test_spatial_flow;
          Alcotest.test_case "context bit roundtrip" `Quick test_contexts_bit_roundtrip;
        ] );
    ]
