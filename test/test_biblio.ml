(* Corpus tests: the generated Table I must reproduce the paper's
   cells exactly, and the Fig. 4 timeline properties the paper states
   must hold in the data. *)

open Ocgra_biblio
module D = Dataset

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let check_refs = Alcotest.(check (list int))

(* The paper's Table I, transcribed cell by cell. *)
let test_table1_spatial () =
  check_refs "spatial heuristics" [ 23; 30; 31 ] (D.in_cell D.S_spatial D.T_heuristic);
  check_refs "spatial GA" [ 19 ] (D.in_cell D.S_spatial D.T_ga);
  check_refs "spatial SA" [ 32; 33 ] (D.in_cell D.S_spatial D.T_sa);
  check_refs "spatial ILP" [ 23; 34; 35 ] (D.in_cell D.S_spatial D.T_ilp)

let test_table1_temporal () =
  check_refs "temporal heuristics" [ 12; 16; 26; 36; 37; 38; 39; 40 ]
    (D.in_cell D.S_temporal D.T_heuristic);
  check_refs "temporal SA" [ 22 ] (D.in_cell D.S_temporal D.T_sa);
  check_refs "temporal ILP" [ 41 ] (D.in_cell D.S_temporal D.T_ilp);
  check_refs "temporal B&B" [ 42 ] (D.in_cell D.S_temporal D.T_bb);
  check_refs "temporal CP" [ 43 ] (D.in_cell D.S_temporal D.T_cp);
  check_refs "temporal SAT" [ 17 ] (D.in_cell D.S_temporal D.T_sat);
  check_refs "temporal SMT" [ 44 ] (D.in_cell D.S_temporal D.T_smt)

let test_table1_binding () =
  check_refs "binding heuristics" [ 14; 24; 28; 45; 46; 47 ]
    (D.in_cell D.S_binding D.T_heuristic);
  check_refs "binding QEA" [ 48 ] (D.in_cell D.S_binding D.T_qea);
  check_refs "binding SA" [ 30; 49; 50 ] (D.in_cell D.S_binding D.T_sa);
  check_refs "binding ILP" [ 15; 48 ] (D.in_cell D.S_binding D.T_ilp)

let test_table1_scheduling () =
  check_refs "scheduling heuristics" [ 24; 28; 36; 46; 48; 50; 51; 52 ]
    (D.in_cell D.S_scheduling D.T_heuristic);
  check_refs "scheduling ILP" [ 15; 53 ] (D.in_cell D.S_scheduling D.T_ilp)

let test_table_renders () =
  let s = Table1.render () in
  checkb "mentions DRESC cell" true
    (String.length s > 0
    &&
    let contains sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    contains "[22]" && contains "SAT [17]" && contains "QEA [48]")

(* Fig. 4 properties the paper states, read off the rendered chart:
   one "YEAR |### N" row per year *)

let timeline_counts () =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | year :: bar :: rest when String.length year = 4 && bar <> "" && bar.[0] = '|' ->
          Some (int_of_string year, int_of_string (List.nth (bar :: rest) (List.length rest)))
      | _ -> None)
    (String.split_on_char '\n' (Timeline.render ()))

let test_timeline_2021_spike () =
  let counts = timeline_counts () in
  let of_year y = List.assoc y counts in
  (* "a clear increase in 2021": 2021 is the maximum *)
  List.iter (fun (y, c) -> if y <> 2021 then checkb "2021 is max" true (c <= of_year 2021)) counts;
  checkb "2021 has many" true (of_year 2021 >= 8)

let test_timeline_total () =
  let counts = timeline_counts () in
  checki "every year of 1998-2021 charted" 24 (List.length counts);
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 counts in
  checki "every entry counted" (List.length D.entries) total

(* the "  <topic> from YYYY" lines under "Technique first appearances" *)
let technique_first_years () =
  List.filter_map
    (fun line ->
      let n = String.length line in
      if n > 12 && String.sub line 0 2 = "  " && String.sub line (n - 10) 6 = " from " then
        Some (String.trim (String.sub line 0 (n - 10)), int_of_string (String.sub line (n - 4) 4))
      else None)
    (String.split_on_char '\n' (Timeline.render ()))

let test_technique_eras () =
  let firsts = technique_first_years () in
  let year_of t = List.assoc (D.topic_to_string t) firsts in
  (* "modulo scheduling was considered since the beginning" *)
  checki "modulo scheduling from the start" 1998 (year_of D.Modulo_scheduling);
  (* "supporting branches started in the early 2000s" *)
  checki "full predication early 2000s" 2002 (year_of D.Full_predication);
  (* "memory-aware methods gained interest around 2010" *)
  checkb "memory aware around 2010" true (abs (year_of D.Memory_aware - 2010) <= 2);
  checkb "hardware loops late 2010s" true (year_of D.Hardware_loops >= 2015)

let test_corpus_integrity () =
  (* distinct reference numbers, sane years *)
  let refs = List.map (fun e -> e.D.ref_no) D.entries in
  checki "unique refs" (List.length refs) (List.length (List.sort_uniq compare refs));
  List.iter
    (fun e -> checkb "year in range" true (e.D.year >= 1998 && e.D.year <= 2021))
    D.entries

let () =
  Alcotest.run "biblio"
    [
      ( "table1 matches the paper",
        [
          Alcotest.test_case "spatial row" `Quick test_table1_spatial;
          Alcotest.test_case "temporal row" `Quick test_table1_temporal;
          Alcotest.test_case "binding row" `Quick test_table1_binding;
          Alcotest.test_case "scheduling row" `Quick test_table1_scheduling;
          Alcotest.test_case "renders" `Quick test_table_renders;
        ] );
      ( "fig4 timeline",
        [
          Alcotest.test_case "2021 spike" `Quick test_timeline_2021_spike;
          Alcotest.test_case "totals" `Quick test_timeline_total;
          Alcotest.test_case "technique eras" `Quick test_technique_eras;
        ] );
      ("corpus", [ Alcotest.test_case "integrity" `Quick test_corpus_integrity ]);
    ]
