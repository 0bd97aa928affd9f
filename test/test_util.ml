(* Utility substrate tests: RNG, priority queue, bitset,
   table rendering, statistics. *)

module Rng = Ocgra_util.Rng
module Pqueue = Ocgra_util.Pqueue
module Bitset = Ocgra_util.Bitset
module Stats = Ocgra_util.Stats
module Table = Ocgra_util.Table

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    checki "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 17 in
    checkb "in range" true (x >= 0 && x < 17);
    let y = Rng.int_in rng (-5) 5 in
    checkb "int_in range" true (y >= -5 && y <= 5);
    let f = Rng.float rng 2.5 in
    checkb "float range" true (f >= 0.0 && f < 2.5)
  done

let test_rng_split_independent () =
  let a = Rng.create 3 in
  let b = Rng.split a in
  (* both streams remain usable and differ *)
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  checkb "streams differ" true (xs <> ys)

let qcheck_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (int_range 0 50))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let arr = Array.init n (fun i -> i) in
      let shuffled = Rng.shuffle rng arr in
      List.sort compare (Array.to_list shuffled) = List.init n (fun i -> i))

let test_rng_gaussian_moments () =
  let rng = Rng.create 11 in
  let n = 20000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng) in
  let m = Stats.mean xs and sd = Stats.stddev xs in
  checkb "mean near 0" true (Float.abs m < 0.05);
  checkb "stddev near 1" true (Float.abs (sd -. 1.0) < 0.05)

(* ---------- Pqueue ---------- *)

let qcheck_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops in priority order" ~count:300
    QCheck.(list small_int)
    (fun prios ->
      let q = Pqueue.create (-1) in
      List.iteri (fun i p -> Pqueue.push q p i) prios;
      let rec drain acc =
        match Pqueue.pop q with None -> List.rev acc | Some (p, _) -> drain (p :: acc)
      in
      drain [] = List.sort compare prios)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create "" in
  Pqueue.push q 1 "a";
  Pqueue.push q 1 "b";
  Pqueue.push q 1 "c";
  let order = List.init 3 (fun _ -> snd (Pqueue.pop_exn q)) in
  Alcotest.(check (list string)) "insertion order on ties" [ "a"; "b"; "c" ] order

let test_pqueue_peek_and_clear () =
  let q = Pqueue.create 0 in
  checkb "empty" true (Pqueue.is_empty q);
  Pqueue.push q 5 50;
  Pqueue.push q 2 20;
  (match Pqueue.peek q with
  | Some (2, 20) -> ()
  | _ -> Alcotest.fail "peek should see the minimum");
  Pqueue.clear q;
  checkb "cleared" true (Pqueue.is_empty q)

(* ---------- Bitset ---------- *)

let qcheck_bitset_model =
  QCheck.Test.make ~name:"bitset behaves like a set of ints" ~count:300
    QCheck.(pair (int_range 1 200) (list (int_range 0 199)))
    (fun (cap, ops) ->
      let b = Bitset.create cap in
      let model = Hashtbl.create 16 in
      List.iter
        (fun x ->
          let x = x mod cap in
          if x land 1 = 0 then begin
            Bitset.add b x;
            Hashtbl.replace model x ()
          end
          else begin
            Bitset.remove b x;
            Hashtbl.remove model x
          end)
        ops;
      Bitset.cardinal b = Hashtbl.length model
      && List.for_all (fun x -> Hashtbl.mem model x) (Bitset.elements b))

let test_bitset_set_ops () =
  let a = Bitset.of_list 10 [ 1; 3; 5 ] and b = Bitset.of_list 10 [ 3; 5; 7 ] in
  let i = Bitset.copy a in
  Bitset.inter_into ~src:b ~dst:i;
  Alcotest.(check (list int)) "inter" [ 3; 5 ] (Bitset.elements i);
  let u = Bitset.copy a in
  Bitset.union_into ~src:b ~dst:u;
  Alcotest.(check (list int)) "union" [ 1; 3; 5; 7 ] (Bitset.elements u);
  let d = Bitset.copy a in
  Bitset.diff_into ~src:b ~dst:d;
  Alcotest.(check (list int)) "diff" [ 1 ] (Bitset.elements d);
  Alcotest.(check (option int)) "min_elt" (Some 1) (Bitset.min_elt a)

(* ---------- Stats ---------- *)

let test_stats_known () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  checkf "mean" 5.0 (Stats.mean xs);
  checkf "median" 4.5 (Stats.median xs);
  checkf "p0 = min" 2.0 (Stats.percentile xs 0.0);
  checkf "p100 = max" 9.0 (Stats.percentile xs 100.0);
  checkf "stddev" (sqrt (32.0 /. 7.0)) (Stats.stddev xs);
  checkf "min" 2.0 (Stats.minimum xs);
  checkf "max" 9.0 (Stats.maximum xs)

let test_hbar_chart () =
  let s = Stats.hbar_chart ~width:10 [ ("a", 10.0); ("bb", 5.0); ("c", 0.0) ] in
  checkb "has full bar" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 0 && String.contains l '#'));
  checkb "labels aligned" true (String.length s > 10)

(* ---------- Table ---------- *)

let test_table_render () =
  let s =
    Table.render ~headers:[| "x"; "value" |] [ [| "a"; "1" |]; [| "long-label"; "22" |] ]
  in
  let lines = String.split_on_char '\n' s in
  checkb "has separator rows" true (List.length lines >= 6);
  (* all non-empty lines have equal width *)
  let widths =
    List.filter_map (fun l -> if l = "" then None else Some (String.length l)) lines
  in
  checkb "rectangular" true (List.for_all (fun w -> w = List.hd widths) widths)

let test_table_ragged_rejected () =
  Alcotest.check_raises "ragged row" (Invalid_argument "Table: ragged row") (fun () ->
      ignore (Table.render ~headers:[| "a"; "b" |] [ [| "only-one" |] ]))

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          QCheck_alcotest.to_alcotest qcheck_shuffle_is_permutation;
        ] );
      ( "pqueue",
        [
          QCheck_alcotest.to_alcotest qcheck_pqueue_sorted;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "peek/clear" `Quick test_pqueue_peek_and_clear;
        ] );
      ( "bitset",
        [
          QCheck_alcotest.to_alcotest qcheck_bitset_model;
          Alcotest.test_case "set operations" `Quick test_bitset_set_ops;
        ] );
      ( "stats",
        [
          Alcotest.test_case "known values" `Quick test_stats_known;
          Alcotest.test_case "hbar chart" `Quick test_hbar_chart;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "ragged rejected" `Quick test_table_ragged_rejected;
        ] );
    ]
