(* Simulator tests: end-to-end functional equivalence with the
   reference interpreter on every kernel, tag checking, and the energy
   model. *)

open Ocgra_core
module Kernels = Ocgra_workloads.Kernels
module Machine = Ocgra_sim.Machine
module Energy = Ocgra_sim.Energy
module Rng = Ocgra_util.Rng

let checkb = Alcotest.check Alcotest.bool
let cgra44 = Ocgra_arch.Cgra.uniform ~rows:4 ~cols:4 ()

let map_kernel ?(seed = 42) (k : Kernels.t) =
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 ~max_ii:16 () in
  match Ocgra_mappers.Constructive.map p (Rng.create seed) with
  | Some m, _, _ -> (p, m)
  | None, _, _ -> Alcotest.fail ("cannot map " ^ k.name)

let test_all_kernels_simulate_correctly () =
  List.iter
    (fun (k : Kernels.t) ->
      let p, m = map_kernel k in
      let iters = 11 in
      let io = Machine.io_of_streams ~memory:k.memory (k.inputs iters) in
      let result = Machine.run p m io ~iters in
      let reference = Kernels.eval_reference k ~iters in
      List.iter
        (fun name ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s output %s" k.name name)
            (Ocgra_dfg.Eval.output_stream reference name)
            (Machine.output_stream result name))
        k.outputs)
    (Kernels.full_suite ())

let test_simulation_across_seeds () =
  (* different mappings of the same kernel produce identical streams *)
  let k = Kernels.fir4 () in
  let run seed =
    let p, m = map_kernel ~seed k in
    let io = Machine.io_of_streams ~memory:k.memory (k.inputs 9) in
    Machine.output_stream (Machine.run p m io ~iters:9) "y"
  in
  Alcotest.(check (list int)) "seed 1 = seed 2" (run 1) (run 2);
  Alcotest.(check (list int)) "seed 2 = seed 3" (run 2) (run 3)

let test_tag_check_catches_corruption () =
  let k = Kernels.fir4 () in
  let p, m = map_kernel k in
  (* shift one route hop in space: the read tag no longer matches *)
  let corrupted = { m with Mapping.routes = Array.copy m.Mapping.routes } in
  let idx = ref (-1) in
  Array.iteri
    (fun i r ->
      if !idx < 0 && List.exists (function Mapping.Hop _ -> true | _ -> false) r then idx := i)
    corrupted.Mapping.routes;
  if !idx >= 0 then begin
    corrupted.Mapping.routes.(!idx) <-
      List.map
        (function
          | Mapping.Hop { pe; time } -> Mapping.Hop { pe = (pe + 5) mod 16; time }
          | s -> s)
        corrupted.Mapping.routes.(!idx);
    let io = Machine.io_of_streams ~memory:k.memory (k.inputs 6) in
    let raised =
      try
        ignore (Machine.run p corrupted io ~iters:6);
        false
      with Machine.Simulation_error _ -> true
    in
    checkb "simulation error raised" true raised
  end

let test_stats_sanity () =
  let k = Kernels.dot_product () in
  let p, m = map_kernel k in
  let iters = 10 in
  let io = Machine.io_of_streams ~memory:k.memory (k.inputs iters) in
  let r = Machine.run p m io ~iters in
  let s = r.Machine.stats in
  Alcotest.(check int) "op instances = ops * iters"
    (Ocgra_dfg.Dfg.node_count k.dfg * iters)
    s.Machine.op_instances;
  checkb "cycles >= iters * ii" true (s.Machine.cycles >= iters * m.Mapping.ii);
  checkb "active <= cycles * npe" true (s.Machine.pe_active_cycles <= s.Machine.cycles * 16)

let test_energy_model_properties () =
  let k = Kernels.fir4 () in
  let p, m = map_kernel k in
  let io = Machine.io_of_streams ~memory:k.memory (k.inputs 8) in
  let r = Machine.run p m io ~iters:8 in
  let e16 = Energy.of_mapping_run k.dfg ~npe:16 ~iters:8 r.Machine.stats in
  let e64 = Energy.of_mapping_run k.dfg ~npe:64 ~iters:8 r.Machine.stats in
  checkb "positive" true (e16 > 0.0);
  checkb "more PEs leak more" true (e64 > e16);
  let one_op op =
    let g = Ocgra_dfg.Dfg.create () in
    let a = Ocgra_dfg.Dfg.input g "a" in
    ignore (Ocgra_dfg.Dfg.output g "o" (Ocgra_dfg.Dfg.binop g op a a));
    Energy.of_mapping_run g ~npe:16 ~iters:8 r.Machine.stats
  in
  checkb "mul costs more than alu" true (one_op Ocgra_dfg.Op.Mul > one_op Ocgra_dfg.Op.Add)

let test_single_pe_simulation () =
  (* everything serialises onto one PE and still computes correctly *)
  let k = Kernels.find "matvec2" in
  let cgra = Ocgra_arch.Cgra.single_pe () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra ~max_ii:40 () in
  match Ocgra_mappers.Constructive.map ~restarts:12 p (Rng.create 2) with
  | None, _, _ -> Alcotest.fail "single PE should map matvec2"
  | Some m, _, _ ->
      let iters = 7 in
      let io = Machine.io_of_streams ~memory:k.memory (k.inputs iters) in
      let r = Machine.run p m io ~iters in
      let reference = Kernels.eval_reference k ~iters in
      Alcotest.(check (list int)) "acc stream"
        (Ocgra_dfg.Eval.output_stream reference "acc")
        (Machine.output_stream r "acc")

let () =
  Alcotest.run "sim"
    [
      ( "functional",
        [
          Alcotest.test_case "all kernels match the interpreter" `Quick
            test_all_kernels_simulate_correctly;
          Alcotest.test_case "mapping-independent results" `Quick test_simulation_across_seeds;
          Alcotest.test_case "single PE" `Quick test_single_pe_simulation;
        ] );
      ( "machine",
        [
          Alcotest.test_case "tag checking" `Quick test_tag_check_catches_corruption;
          Alcotest.test_case "stats sanity" `Quick test_stats_sanity;
        ] );
      ("energy", [ Alcotest.test_case "model properties" `Quick test_energy_model_properties ]);
    ]
