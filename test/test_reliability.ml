(* Transient-fault tolerance tests: the transient-event model and its
   Monte-Carlo generator, the DMR/TMR hardening transforms, the
   fault-injecting simulator mode, and the reliability campaign —
   ending with the headline fixed-seed experiment: TMR strictly beats
   the unhardened mapping on SDC rate under the same injected fault
   load, at a nonzero, reproducible II/energy cost. *)

open Ocgra_core
open Ocgra_dfg
module Cgra = Ocgra_arch.Cgra
module Fault = Ocgra_arch.Fault
module Machine = Ocgra_sim.Machine
module Reliability = Ocgra_sim.Reliability
module Kernels = Ocgra_workloads.Kernels
module Rng = Ocgra_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let cgra33 = Cgra.uniform ~rows:3 ~cols:3 ()
let cgra44 = Cgra.uniform ~rows:4 ~cols:4 ()

let map_kernel ?(seed = 42) p =
  let o = Mapper.run (Ocgra_mappers.Registry.find "modulo-greedy") ~seed p in
  match o.Mapper.mapping with
  | Some m -> m
  | None -> Alcotest.fail ("mapping failed: " ^ o.Mapper.note)

let count_op dfg op = Dfg.fold_nodes (fun nd acc -> if nd.Dfg.op = op then acc + 1 else acc) dfg 0

(* ---------- the transient-event model ---------- *)

let test_monte_carlo_deterministic () =
  let links =
    List.concat_map
      (fun i -> List.map (fun j -> (i, j)) (Cgra.raw_neighbours cgra44 i))
      (List.init (Cgra.pe_count cgra44) Fun.id)
  in
  let draw seed = Fault.monte_carlo ~pe_count:16 ~links ~horizon:50 ~rate:0.01 ~seed in
  checkb "same seed, same bombardment" true (draw 3 = draw 3);
  checkb "zero rate, no events" true
    (Fault.monte_carlo ~pe_count:16 ~links ~horizon:50 ~rate:0.0 ~seed:3 = []);
  List.iter
    (fun ev ->
      let c =
        match ev with
        | Fault.Bit_flip { cycle; _ }
        | Fault.Link_drop { cycle; _ }
        | Fault.Config_upset { cycle; _ } ->
            cycle
      in
      checkb "event inside horizon" true (c >= 0 && c < 50))
    (draw 3);
  Alcotest.check_raises "rate out of range" (Invalid_argument "Fault.monte_carlo: rate not in [0,1]")
    (fun () -> ignore (Fault.monte_carlo ~pe_count:16 ~links ~horizon:10 ~rate:1.5 ~seed:0))

let test_inject_transients_deterministic () =
  let a = Cgra.inject_transients cgra44 ~seed:9 ~horizon:40 ~rate:0.02 in
  let b = Cgra.inject_transients cgra44 ~seed:9 ~horizon:40 ~rate:0.02 in
  checkb "cgra-level injection deterministic" true (a = b)

(* ---------- hardening transforms: structure ---------- *)

(* dot-product: 4 compute nodes + 1 output sink, one edge into the
   sink.  TMR: 3*4 replicas + 1 sink + 1 voter = 14; DMR: 2*4 + 1 + 1
   comparator = 10. *)
let test_tmr_structure () =
  let k = Kernels.dot_product () in
  let h, origin = Harden.apply Harden.Tmr k.dfg in
  Alcotest.(check (list string)) "hardened DFG valid" [] (Dfg.validate h);
  checki "TMR node count" 14 (Dfg.node_count h);
  checki "one voter" 1 (count_op h Op.Vote);
  checki "no comparator" 0 (count_op h Op.Cmp);
  checki "outputs stay single" 1 (count_op h (Op.Output "sum"));
  (* the voter guards the accumulator: its origin is the "sum" node *)
  Dfg.iter_nodes
    (fun nd ->
      if nd.Dfg.op = Op.Vote then
        Alcotest.(check string) "voter origin" "sum" (Dfg.name k.dfg (origin nd.Dfg.id)))
    h

let test_dmr_structure () =
  let k = Kernels.dot_product () in
  let h, _ = Harden.apply Harden.Dmr k.dfg in
  Alcotest.(check (list string)) "hardened DFG valid" [] (Dfg.validate h);
  checki "DMR node count" 10 (Dfg.node_count h);
  checki "one comparator" 1 (count_op h Op.Cmp);
  checki "no voter" 0 (count_op h Op.Vote)

let test_mode_parsing () =
  Alcotest.(check (list string)) "names" [ "none"; "dmr"; "tmr" ]
    (List.map Harden.mode_to_string [ Harden.No_harden; Harden.Dmr; Harden.Tmr ])

(* ---------- hardening transforms: semantics preserved ---------- *)

let eval_outputs dfg ~init streams ~memory iters =
  let env = Eval.env_of_streams ~memory streams in
  let r = Eval.run ~init dfg env ~iters in
  List.sort compare
    (Hashtbl.fold (fun name _ acc -> (name, Eval.output_stream r name) :: acc) r.Eval.outputs [])

let qcheck_harden_preserves_semantics =
  QCheck.Test.make ~name:"dmr/tmr preserve interpreter semantics on random DFGs" ~count:60
    QCheck.(pair small_int (int_range 6 18))
    (fun (seed, n) ->
      let rng = Rng.create (seed + 13) in
      let params = { Ocgra_workloads.Random_dfg.default with nodes = n } in
      let dfg, streams = Ocgra_workloads.Random_dfg.generate ~params rng in
      let iters = 5 in
      let before = eval_outputs dfg ~init:(fun _ -> 0) (streams iters) ~memory:[] iters in
      List.for_all
        (fun mode ->
          let h, _ = Harden.apply mode dfg in
          Dfg.validate h = []
          && eval_outputs h ~init:(fun _ -> 0) (streams iters) ~memory:[] iters = before)
        [ Harden.Dmr; Harden.Tmr ])

(* Kernels carry nontrivial init values and memory arrays; the origin
   map must carry the init through the replicas. *)
let test_harden_preserves_kernels () =
  let iters = 6 in
  List.iter
    (fun (k : Kernels.t) ->
      let before = eval_outputs k.dfg ~init:k.init (k.inputs iters) ~memory:k.memory iters in
      List.iter
        (fun mode ->
          let h, origin = Harden.apply mode k.dfg in
          Alcotest.(check (list string))
            (Printf.sprintf "%s %s valid" k.name (Harden.mode_to_string mode))
            [] (Dfg.validate h);
          let after =
            eval_outputs h ~init:(fun v -> k.init (origin v)) (k.inputs iters) ~memory:k.memory iters
          in
          checkb (Printf.sprintf "%s %s semantics" k.name (Harden.mode_to_string mode)) true
            (before = after))
        [ Harden.Dmr; Harden.Tmr ])
    (Kernels.full_suite ())

(* ---------- fault-injecting execution ---------- *)

let dot_setup () =
  let k = Kernels.dot_product () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 () in
  let m = map_kernel p in
  let iters = 6 in
  let mk_io () = Machine.io_of_streams ~memory:k.memory (k.inputs iters) in
  let reference = Kernels.eval_reference k ~iters in
  let expected = List.map (fun n -> (n, Eval.output_stream reference n)) k.outputs in
  (k, p, m, iters, mk_io, expected)

let test_no_transients_no_change () =
  let _, p, m, iters, mk_io, expected = dot_setup () in
  let result, ts = Machine.run_transient p m (mk_io ()) ~iters ~transients:[] in
  checkb "clean run matches reference" true
    (List.for_all (fun (n, want) -> Machine.output_stream result n = want) expected);
  checki "nothing injected" 0 ts.Machine.injected;
  checki "nothing applied" 0 ts.Machine.applied

(* A flip aimed at the accumulator's write cycle must corrupt the
   output stream: the canonical silent-data-corruption scenario. *)
let test_targeted_flip_is_sdc () =
  let k, p, m, iters, mk_io, expected = dot_setup () in
  (* the accumulator, not the like-named Output sink *)
  let acc =
    Dfg.fold_nodes
      (fun nd acc -> if nd.Dfg.name = "sum" && nd.Dfg.op = Op.Binop Op.Add then nd.Dfg.id else acc)
      k.dfg (-1)
  in
  let pe, cycle = m.Mapping.binding.(acc) in
  let transients = [ Fault.Bit_flip { pe; cycle; bit = 4 } ] in
  let cls, ts = Reliability.classify p m ~io:(mk_io ()) ~iters ~expected ~transients in
  checkb "classified as SDC" true (cls = Reliability.Sdc);
  (match ts with
  | Some ts -> checki "the flip struck" 1 ts.Machine.applied
  | None -> Alcotest.fail "run should complete");
  (* same trial, same verdict: classification is deterministic *)
  let cls2, _ = Reliability.classify p m ~io:(mk_io ()) ~iters ~expected ~transients in
  checkb "deterministic" true (cls = cls2)

(* The same targeted flip on one TMR replica is outvoted. *)
let test_targeted_flip_is_masked_under_tmr () =
  let k = Kernels.dot_product () in
  let hdfg, origin = Harden.apply Harden.Tmr k.dfg in
  let p = Problem.temporal ~init:(fun v -> k.init (origin v)) ~dfg:hdfg ~cgra:cgra44 () in
  let m = map_kernel p in
  let iters = 6 in
  let mk_io () = Machine.io_of_streams ~memory:k.memory (k.inputs iters) in
  let reference = Kernels.eval_reference k ~iters in
  let expected = List.map (fun n -> (n, Eval.output_stream reference n)) k.outputs in
  (* replica 1 of the accumulator ("sum#1") *)
  let acc1 =
    Dfg.fold_nodes (fun nd acc -> if nd.Dfg.name = "sum#1" then nd.Dfg.id else acc) hdfg (-1)
  in
  checkb "replica exists" true (acc1 >= 0);
  let pe, cycle = m.Mapping.binding.(acc1) in
  let transients = [ Fault.Bit_flip { pe; cycle; bit = 4 } ] in
  let cls, ts = Reliability.classify p m ~io:(mk_io ()) ~iters ~expected ~transients in
  checkb "masked by the voter" true (cls = Reliability.Masked);
  match ts with
  | Some ts -> checkb "voter saw the disagreement" true (ts.Machine.corrections > 0)
  | None -> Alcotest.fail "run should complete"

let test_zero_rate_campaign_all_correct () =
  let _, p, m, iters, mk_io, expected = dot_setup () in
  let rep = Reliability.run_campaign p m ~mk_io ~iters ~expected ~trials:10 ~rate:0.0 ~seed:1 in
  checki "all correct" 10 rep.Reliability.correct;
  checki "no events" 0 rep.Reliability.injected;
  checkb "rates zero" true
    (rep.Reliability.sdc = 0 && rep.Reliability.masked = 0)

(* ---------- the headline fixed-seed campaign ---------- *)

(* Acceptance experiment: on three kernels, the TMR-hardened mapping
   must have a strictly lower SDC rate than the unhardened mapping of
   the same kernel under the same injected fault rate, the hardening
   must cost nonzero II and energy overhead, and the whole experiment
   must be bit-for-bit reproducible from its seed. *)
let test_tmr_beats_unhardened () =
  let trials = 60 and rate = 0.004 and seed = 11 and iters = 8 in
  List.iter
    (fun name ->
      let k = Kernels.find name in
      let p0 = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra33 () in
      let hdfg, origin = Harden.apply Harden.Tmr k.dfg in
      let p1 = Problem.temporal ~init:(fun v -> k.init (origin v)) ~dfg:hdfg ~cgra:cgra33 () in
      let m0 = map_kernel p0 and m1 = map_kernel p1 in
      let mk_io () = Machine.io_of_streams ~memory:k.memory (k.inputs iters) in
      let reference = Kernels.eval_reference k ~iters in
      let expected = List.map (fun n -> (n, Eval.output_stream reference n)) k.outputs in
      let camp p m = Reliability.run_campaign p m ~mk_io ~iters ~expected ~trials ~rate ~seed in
      let base = camp p0 m0 and hard = camp p1 m1 in
      checkb
        (Printf.sprintf "%s: unhardened suffers SDC (%d)" name base.Reliability.sdc)
        true (base.Reliability.sdc > 0);
      checkb
        (Printf.sprintf "%s: TMR SDC %d strictly below unhardened %d" name hard.Reliability.sdc
           base.Reliability.sdc)
        true
        (hard.Reliability.sdc < base.Reliability.sdc);
      (* nonzero, reproducible overhead *)
      let ov = Reliability.overhead ~baseline:(p0, m0) ~hardened:(p1, m1) ~mk_io ~iters in
      checkb
        (Printf.sprintf "%s: II overhead nonzero" name)
        true
        (ov.Reliability.ii_hard > ov.Reliability.ii_base);
      checkb
        (Printf.sprintf "%s: energy overhead nonzero" name)
        true
        (ov.Reliability.energy_hard > ov.Reliability.energy_base);
      (* same seed, same campaign and same overhead — bit for bit *)
      checkb (Printf.sprintf "%s: campaign reproducible" name) true
        (camp p0 m0 = base && camp p1 m1 = hard);
      let ov2 = Reliability.overhead ~baseline:(p0, m0) ~hardened:(p1, m1) ~mk_io ~iters in
      checkb (Printf.sprintf "%s: overhead reproducible" name) true (ov = ov2))
    [ "saxpy"; "horner"; "absdiff" ]

(* DMR cannot mask, but it must convert silent corruption into
   detection: strictly fewer SDCs than the bare mapping, nonzero
   detections. *)
let test_dmr_detects () =
  let trials = 60 and rate = 0.004 and seed = 11 and iters = 8 in
  let k = Kernels.find "absdiff" in
  let p0 = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra33 () in
  let hdfg, origin = Harden.apply Harden.Dmr k.dfg in
  let p1 = Problem.temporal ~init:(fun v -> k.init (origin v)) ~dfg:hdfg ~cgra:cgra33 () in
  let m0 = map_kernel p0 and m1 = map_kernel p1 in
  let mk_io () = Machine.io_of_streams ~memory:k.memory (k.inputs iters) in
  let reference = Kernels.eval_reference k ~iters in
  let expected = List.map (fun n -> (n, Eval.output_stream reference n)) k.outputs in
  let camp p m = Reliability.run_campaign p m ~mk_io ~iters ~expected ~trials ~rate ~seed in
  let base = camp p0 m0 and hard = camp p1 m1 in
  checkb "unhardened suffers SDC" true (base.Reliability.sdc > 0);
  checkb "DMR SDC strictly lower" true (hard.Reliability.sdc < base.Reliability.sdc);
  checkb "DMR detects" true (hard.Reliability.detected > 0)

let () =
  Alcotest.run "reliability"
    [
      ( "transients",
        [
          Alcotest.test_case "monte-carlo generator" `Quick test_monte_carlo_deterministic;
          Alcotest.test_case "cgra-level injection" `Quick test_inject_transients_deterministic;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "tmr structure" `Quick test_tmr_structure;
          Alcotest.test_case "dmr structure" `Quick test_dmr_structure;
          Alcotest.test_case "mode parsing" `Quick test_mode_parsing;
          QCheck_alcotest.to_alcotest qcheck_harden_preserves_semantics;
          Alcotest.test_case "kernels preserved" `Quick test_harden_preserves_kernels;
        ] );
      ( "injection",
        [
          Alcotest.test_case "empty bombardment" `Quick test_no_transients_no_change;
          Alcotest.test_case "targeted flip is SDC" `Quick test_targeted_flip_is_sdc;
          Alcotest.test_case "flip masked under TMR" `Quick test_targeted_flip_is_masked_under_tmr;
          Alcotest.test_case "zero-rate campaign" `Quick test_zero_rate_campaign_all_correct;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "tmr beats unhardened" `Slow test_tmr_beats_unhardened;
          Alcotest.test_case "dmr detects" `Slow test_dmr_detects;
        ] );
    ]
