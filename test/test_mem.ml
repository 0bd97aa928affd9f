(* Data-mapping tests: bank model, conflict-aware placement, register
   allocation. *)

module Bank = Ocgra_mem.Bank
module Placement = Ocgra_mem.Placement
module Regalloc = Ocgra_mem.Regalloc
module Mapping = Ocgra_core.Mapping
module Kernels = Ocgra_workloads.Kernels
module Rng = Ocgra_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---------- banks ---------- *)

(* stalls of one cycle that touches [addrs] on [banks] banks *)
let stalls banks addrs =
  let accesses = List.map (fun a -> (0, { Bank.array_base = a; stride = 0; offset = 0 })) addrs in
  List.assoc banks (Bank.conflicts_by_banks ~bank_counts:[ banks ] ~ii:1 ~iters:1 accesses)

let test_bank_of () =
  (* low-order interleaving: address a lives in bank a mod banks *)
  checki "addr 0 and 4 share bank 0" 1 (stalls 4 [ 0; 4 ]);
  checki "addr 1 and 5 share bank 1" 1 (stalls 4 [ 1; 5 ]);
  checki "addr 0 and 5 do not" 0 (stalls 4 [ 0; 5 ])

let test_cycle_conflicts () =
  checki "no accesses" 0 (stalls 2 []);
  checki "distinct banks" 0 (stalls 2 [ 0; 1 ]);
  checki "same bank pair" 1 (stalls 2 [ 0; 2 ]);
  checki "three on one bank" 2 (stalls 2 [ 0; 2; 4 ])

let test_conflicts_monotone_in_banks () =
  let accesses =
    [
      (0, { Bank.array_base = 0; stride = 1; offset = 0 });
      (0, { Bank.array_base = 64; stride = 1; offset = 0 });
      (0, { Bank.array_base = 128; stride = 2; offset = 1 });
    ]
  in
  let results = Bank.conflicts_by_banks ~bank_counts:[ 1; 2; 4; 8 ] ~ii:1 ~iters:32 accesses in
  let values = List.map snd results in
  let rec nonincreasing = function
    | a :: (b :: _ as rest) -> a >= b && nonincreasing rest
    | _ -> true
  in
  checkb "more banks never hurt" true (nonincreasing values);
  checki "single bank worst" (2 * 32) (List.hd values)

(* ---------- placement ---------- *)

let arrays =
  [
    { Placement.name = "a"; size = 8; slots = [ 0 ] };
    { Placement.name = "b"; size = 8; slots = [ 0 ] };
    { Placement.name = "c"; size = 8; slots = [ 1 ] };
    { Placement.name = "d"; size = 8; slots = [ 0; 1 ] };
  ]

let test_greedy_placement_avoids_conflicts () =
  let assignment = Placement.greedy ~banks:2 arrays in
  (* a and b share slot 0: they must not share a bank when 2 banks exist *)
  checkb "a,b split" true (List.assoc "a" assignment <> List.assoc "b" assignment)

let test_ilp_at_least_as_good_as_greedy () =
  let greedy = Placement.greedy ~banks:2 arrays in
  match Placement.ilp ~banks:2 arrays with
  | Some exact ->
      checkb "ilp <= greedy" true (Placement.cost arrays exact <= Placement.cost arrays greedy)
  | None -> Alcotest.fail "small ILP should solve"

let test_single_bank_cost () =
  let all_one = List.map (fun a -> (a.Placement.name, 0)) arrays in
  (* conflicts: (a,b):1, (a,d):1, (b,d):1, (c,d):1 -> 4 *)
  checki "forced conflicts" 4 (Placement.cost arrays all_one)

let qcheck_ilp_beats_greedy =
  QCheck.Test.make ~name:"ILP placement never worse than greedy" ~count:30
    QCheck.(pair small_int (int_range 2 5))
    (fun (seed, n) ->
      let rng = Rng.create (seed + 3) in
      let arrays =
        List.init n (fun i ->
            {
              Placement.name = Printf.sprintf "arr%d" i;
              size = 8;
              slots = List.filter (fun _ -> Rng.bool rng) [ 0; 1; 2 ];
            })
      in
      let greedy = Placement.greedy ~banks:2 arrays in
      match Placement.ilp ~banks:2 arrays with
      | Some exact -> Placement.cost arrays exact <= Placement.cost arrays greedy
      | None -> QCheck.assume_fail ())

(* ---------- register allocation ---------- *)

let test_regalloc_on_mapped_kernel () =
  let k = Kernels.fir4 () in
  let cgra = Ocgra_arch.Cgra.uniform ~rows:4 ~cols:4 ~rf_size:8 () in
  let p = Ocgra_core.Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra ~max_ii:16 () in
  match Ocgra_mappers.Constructive.map p (Rng.create 7) with
  | None, _, _ -> Alcotest.fail "fir4 maps"
  | Some m, _, _ ->
      let npe = 16 in
      (* one PE's needs: the summary of a mapping that keeps only that
         PE's holds *)
      let only pe =
        let keep = function Mapping.Hold h -> h.pe = pe | Mapping.Hop _ -> false in
        Regalloc.summarize { m with Mapping.routes = Array.map (List.filter keep) m.routes } ~npe
      in
      let per_pe = List.init npe only in
      (* the rotating need is what the checker already enforced *)
      List.iter (fun p -> checkb "within rf" true (p.Regalloc.max_rotating <= 8)) per_pe;
      (* unified need >= rotating need per PE (colouring >= max overlap) *)
      List.iter
        (fun p ->
          checkb "unified >= rotating" true (p.Regalloc.max_unified >= p.Regalloc.max_rotating))
        per_pe;
      let s = Regalloc.summarize m ~npe in
      let max_of f = List.fold_left (fun acc p -> max acc (f p)) 0 per_pe in
      checkb "summary consistent" true
        (s.Regalloc.max_rotating = max_of (fun p -> p.Regalloc.max_rotating)
        && s.Regalloc.max_unified = max_of (fun p -> p.Regalloc.max_unified))

let test_regalloc_no_holds () =
  (* a mapping with empty routes has zero register need *)
  let m = { Ocgra_core.Mapping.ii = 2; binding = [| (0, 0) |]; routes = [||] } in
  let s = Regalloc.summarize m ~npe:4 in
  checki "no holds" 0 s.Regalloc.total_holds;
  checki "no regs" 0 s.Regalloc.max_unified

let () =
  Alcotest.run "mem"
    [
      ( "banks",
        [
          Alcotest.test_case "bank_of" `Quick test_bank_of;
          Alcotest.test_case "cycle conflicts" `Quick test_cycle_conflicts;
          Alcotest.test_case "monotone in banks" `Quick test_conflicts_monotone_in_banks;
        ] );
      ( "placement",
        [
          Alcotest.test_case "greedy splits hot arrays" `Quick test_greedy_placement_avoids_conflicts;
          Alcotest.test_case "ilp vs greedy" `Quick test_ilp_at_least_as_good_as_greedy;
          Alcotest.test_case "single bank cost" `Quick test_single_bank_cost;
          QCheck_alcotest.to_alcotest qcheck_ilp_beats_greedy;
        ] );
      ( "regalloc",
        [
          Alcotest.test_case "mapped kernel" `Quick test_regalloc_on_mapped_kernel;
          Alcotest.test_case "no holds" `Quick test_regalloc_no_holds;
        ] );
    ]
