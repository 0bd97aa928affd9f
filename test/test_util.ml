(* Utility substrate tests: RNG, bitset, table rendering,
   statistics. *)

module Rng = Ocgra_util.Rng
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

(* [int_ahead] reads the draw [j] places ahead and [skip] jumps over
   [j] draws, whatever bounds the skipped draws had: both rest on
   [int] taking one splitmix64 output per call. *)
let qcheck_rng_read_ahead =
  QCheck.Test.make ~name:"read-ahead and skip equal sequential draws" ~count:300
    QCheck.(
      triple int (int_range 0 10_000)
        (oneof
           [ int_range 1 (1 lsl 20); oneofl [ 1; 2; 3; 16; 63; 64; 1000; (1 lsl 20) - 1; 1 lsl 20 ] ]))
    (fun (seed, j, bound) ->
      let seq = Rng.create seed and ahead = Rng.create seed and skipped = Rng.create seed in
      let peeked = Rng.int_ahead ahead j bound in
      for i = 1 to j do
        ignore (Rng.int seq (1 + (i mod 97)))
      done;
      Rng.skip skipped j;
      let next = Rng.int seq bound in
      peeked = next
      && Rng.int skipped bound = next
      && Rng.int skipped 1000 = Rng.int seq 1000
      (* reading ahead draws nothing *)
      && Rng.int ahead bound = Rng.int (Rng.create seed) bound)

let qcheck_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (int_range 0 50))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let arr = Array.init n (fun i -> i) in
      let shuffled = Rng.shuffle rng arr in
      List.sort compare (Array.to_list shuffled) = List.init n (fun i -> i))

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
  let d = Bitset.copy a in
  Bitset.diff_into ~src:b ~dst:d;
  Alcotest.(check (list int)) "diff" [ 1 ] (Bitset.elements d);
  Alcotest.(check (option int)) "min_elt" (Some 1) (Bitset.min_elt a)

(* ---------- Stats ---------- *)

let test_stats_known () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  checkf "median" 4.5 (Stats.median xs);
  checkf "odd count" 5.0 (Stats.median [| 9.0; 1.0; 5.0 |])

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
          QCheck_alcotest.to_alcotest qcheck_shuffle_is_permutation;
          QCheck_alcotest.to_alcotest qcheck_rng_read_ahead;
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
