(* Workload tests: every kernel is structurally sound and evaluable;
   the random generator produces valid, mappable-shaped DFGs. *)

module Kernels = Ocgra_workloads.Kernels
module Random_dfg = Ocgra_workloads.Random_dfg
module Dfg = Ocgra_dfg.Dfg
module Rng = Ocgra_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let test_all_kernels_valid () =
  List.iter
    (fun (k : Kernels.t) ->
      Alcotest.(check (list string)) (k.name ^ " valid") [] (Dfg.validate k.dfg);
      checkb (k.name ^ " dist-0 acyclic") true (Dfg.is_acyclic k.dfg))
    (Kernels.full_suite ())

let test_all_kernels_evaluate () =
  List.iter
    (fun (k : Kernels.t) ->
      let r = Kernels.eval_reference k ~iters:8 in
      List.iter
        (fun name ->
          checki
            (Printf.sprintf "%s emits %s every iteration" k.name name)
            8
            (List.length (Ocgra_dfg.Eval.output_stream r name)))
        k.outputs)
    (Kernels.full_suite ())

let test_kernel_lookup () =
  checkb "find works" true ((Kernels.find "fir4").name = "fir4");
  (* every library kernel round-trips through find by its own name *)
  List.iter
    (fun (k : Kernels.t) ->
      checkb (k.name ^ " round-trips") true ((Kernels.find k.name).name = k.name))
    (Kernels.all ());
  Alcotest.check_raises "unknown kernel"
    (Invalid_argument "Kernels.find: unknown kernel nope") (fun () ->
      ignore (Kernels.find "nope"))

let test_suites_subset () =
  let all = List.map (fun (k : Kernels.t) -> k.name) (Kernels.full_suite ()) in
  List.iter
    (fun (k : Kernels.t) -> checkb "small in full" true (List.mem k.name all))
    (Kernels.small_suite ())

let test_branch_flags () =
  checkb "running-max has branch" true (Kernels.find "running-max").Kernels.has_branch;
  checkb "fir4 has no branch" false (Kernels.find "fir4").Kernels.has_branch

let qcheck_random_dfg_valid =
  QCheck.Test.make ~name:"random DFGs are valid, acyclic and evaluable" ~count:100
    QCheck.(pair small_int (int_range 4 30))
    (fun (seed, n) ->
      let rng = Rng.create (seed * 3) in
      let params = { Random_dfg.default with nodes = n; memory_ops = false } in
      let dfg, streams = Random_dfg.generate ~params rng in
      Dfg.validate dfg = []
      && Dfg.is_acyclic dfg
      &&
      let env = Ocgra_dfg.Eval.env_of_streams (streams 4) in
      let r = Ocgra_dfg.Eval.run dfg env ~iters:4 in
      Hashtbl.length r.Ocgra_dfg.Eval.outputs > 0)

let qcheck_random_dfg_recurrences =
  QCheck.Test.make ~name:"carried probability produces recurrences" ~count:50
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create (seed + 11) in
      let params = { Random_dfg.default with nodes = 16; carried_probability = 1.0 } in
      let dfg, _ = Random_dfg.generate ~params rng in
      Dfg.rec_mii dfg >= 1
      && List.exists (fun (e : Dfg.edge) -> e.dist > 0) (Dfg.edges dfg))

let test_kernel_init_values () =
  (* running-max starts from a very small init so the first element wins *)
  let k = Kernels.find "running-max" in
  let r = Kernels.eval_reference k ~iters:1 in
  match Ocgra_dfg.Eval.output_stream r "max" with
  | [ first ] ->
      let inputs = k.Kernels.inputs 1 in
      let x0 = (List.assoc "x" inputs).(0) in
      checki "first input wins" x0 first
  | _ -> Alcotest.fail "one output expected"

let () =
  Alcotest.run "workloads"
    [
      ( "kernels",
        [
          Alcotest.test_case "all valid" `Quick test_all_kernels_valid;
          Alcotest.test_case "all evaluate" `Quick test_all_kernels_evaluate;
          Alcotest.test_case "lookup" `Quick test_kernel_lookup;
          Alcotest.test_case "suites" `Quick test_suites_subset;
          Alcotest.test_case "branch flags" `Quick test_branch_flags;
          Alcotest.test_case "init values" `Quick test_kernel_init_values;
        ] );
      ( "random",
        [
          QCheck_alcotest.to_alcotest qcheck_random_dfg_valid;
          QCheck_alcotest.to_alcotest qcheck_random_dfg_recurrences;
        ] );
    ]
