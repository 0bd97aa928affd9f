(* Observability subsystem tests: span nesting and ordering on the
   monotonic clock, counter determinism (same seed, one worker =>
   byte-identical dumps), lock-free trace merging across worker
   domains, exporter output validity (checked by a small recursive
   descent JSON parser — no JSON library in the tree, on purpose) and
   the structured per-tier trail the racing harness now reports. *)

open Ocgra_core
module Obs = Ocgra_obs
module Ctx = Ocgra_obs.Ctx
module Kernels = Ocgra_workloads.Kernels

(* The gate verdict: no failures and no structural errors. *)
let bench_ok (r : Ocgra_obs.Bench_diff.report) = r.failures = [] && r.structural = []

(* The bytes an exporter writes to a fresh file with this suffix. *)
let exported suffix write =
  let path = Filename.temp_file "test_obs" suffix in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write path;
      In_channel.with_open_bin path In_channel.input_all)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let cgra44 = Ocgra_arch.Cgra.uniform ~rows:4 ~cols:4 ()

(* ---------- a minimal JSON validity checker ---------- *)

(* Accepts exactly the JSON grammar (RFC 8259, minus extension
   niceties we never emit: no leading +, no lone surrogate checks).
   Returns true iff the whole string is one valid JSON value. *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let fail = ref false in
  let expect c = if peek () = Some c then advance () else fail := true in
  let literal lit =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then pos := !pos + l else fail := true
  in
  let string_lit () =
    expect '"';
    let fin = ref false in
    while (not !fin) && not !fail do
      match peek () with
      | None -> fail := true
      | Some '"' ->
          advance ();
          fin := true
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                (match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> ()
                | _ -> fail := true);
                if not !fail then advance ()
              done
          | _ -> fail := true)
      | Some c when Char.code c < 0x20 -> fail := true
      | Some _ -> advance ()
    done
  in
  let digits () =
    let saw = ref false in
    while (match peek () with Some '0' .. '9' -> true | _ -> false) do
      saw := true;
      advance ()
    done;
    if not !saw then fail := true
  in
  let number () =
    if peek () = Some '-' then advance ();
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ()
  in
  let rec value () =
    skip_ws ();
    (match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then advance ()
        else begin
          let fin = ref false in
          while (not !fin) && not !fail do
            skip_ws ();
            string_lit ();
            skip_ws ();
            expect ':';
            value ();
            skip_ws ();
            match peek () with
            | Some ',' -> advance ()
            | Some '}' ->
                advance ();
                fin := true
            | _ -> fail := true
          done
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then advance ()
        else begin
          let fin = ref false in
          while (not !fin) && not !fail do
            value ();
            skip_ws ();
            match peek () with
            | Some ',' -> advance ()
            | Some ']' ->
                advance ();
                fin := true
            | _ -> fail := true
          done
        end
    | Some '"' -> string_lit ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail := true);
    skip_ws ()
  in
  value ();
  (not !fail) && !pos = n

let test_json_checker_sanity () =
  (* the checker itself must reject garbage, or the exporter tests
     prove nothing *)
  List.iter
    (fun good -> checkb good true (json_valid good))
    [
      "{}"; "[]"; "null"; "-12.5e3"; "{\"a\": [1, 2, {\"b\": \"c\\n\\u0041\"}]}";
      " { \"x\" : true } ";
    ];
  List.iter
    (fun bad -> checkb bad false (json_valid bad))
    [ ""; "{"; "{\"a\":}"; "[1,]"; "tru"; "\"unterminated"; "{} extra"; "01x"; "\"bad\\q\"" ]

(* ---------- the Json printer ---------- *)

let test_json_render_layout () =
  let open Obs.Json in
  checks "compact, members in order, fixed escapes"
    {|{"a":[1,0.1,null,"q\"\\\n\u0001é"],"b":true,"c":null,"":{}}|}
    (render
       (Obj
          [
            ("a", Arr [ int 1; Num 0.1; Num Float.nan; Str "q\"\\\n\001\xc3\xa9" ]);
            ("b", Bool true);
            ("c", Null);
            ("", Obj []);
          ]));
  checks "integers up to 2^53 print exactly" "[9007199254740992,-9007199254740992,0]"
    (render (Arr [ Num (2.0 ** 53.0); Num (-.(2.0 ** 53.0)); Num (-0.0) ]));
  checks "beyond 2^53, and non-integers, print shortest exact" "[1.8446744073709552e+19,1e-07]"
    (render (Arr [ Num (2.0 ** 64.0); Num 1e-7 ]));
  checks "non-finite is null" "[null,null]" (render (Arr [ Num Float.infinity; Num Float.nan ]))

let test_json_bad_unicode_escape () =
  let bad s =
    match Obs.Json.parse s with
    | Error _ -> true
    | Ok _ -> false
    | exception e -> Alcotest.failf "parse %S raised %s" s (Printexc.to_string e)
  in
  List.iter
    (fun s -> checkb (s ^ " is an error") true (bad s))
    [ {|"\uZZZZ"|}; {|"\u12"|}; {|"\u_1_2"|}; {|"\u12|}; {|"\u+123"|} ];
  checkb "four hex digits decode" true (Obs.Json.parse {|"\u0041\u00e9"|} = Ok (Obs.Json.Str "A\xc3\xa9"))

(* Every error string of the reader, message and byte offset, as
   recorded before the reader stopped allocating per character: serve
   copies them into its per-line error responses, so they are wire
   bytes. *)
let json_errors =
  [
    ("", "JSON parse error at byte 0: unexpected end of input");
    ("{", "JSON parse error at byte 1: expected \"");
    ("{\"a\":}", "JSON parse error at byte 5: unexpected character '}'");
    ("[1,]", "JSON parse error at byte 3: unexpected character ']'");
    ("tru", "JSON parse error at byte 0: expected true");
    ("\"unterminated", "JSON parse error at byte 13: unterminated string");
    ("{} extra", "JSON parse error at byte 3: trailing garbage after value");
    ("01x", "JSON parse error at byte 1: trailing garbage after value");
    ("\"bad\\q\"", "JSON parse error at byte 6: bad escape");
    ("\"\\uZZZZ\"", "JSON parse error at byte 3: bad \\u escape: expected four hex digits");
    ("\"\\u12\"", "JSON parse error at byte 3: truncated \\u escape");
    ("\"\\u_1_2\"", "JSON parse error at byte 3: bad \\u escape: expected four hex digits");
    ("\"\\u12", "JSON parse error at byte 3: truncated \\u escape");
    ("\"\\u+123\"", "JSON parse error at byte 3: bad \\u escape: expected four hex digits");
    ("\"\\u\"", "JSON parse error at byte 3: truncated \\u escape");
    ("\"\\u00G0\"", "JSON parse error at byte 3: bad \\u escape: expected four hex digits");
    ("\"\\ud83d\\u12\"", "JSON parse error at byte 9: truncated \\u escape");
    ("\"\\ud83d\\uZZZZ\"", "JSON parse error at byte 9: bad \\u escape: expected four hex digits");
    ("\"\\ud83d\\u", "JSON parse error at byte 9: truncated \\u escape");
    ("-", "JSON parse error at byte 1: expected digit");
    ("1.", "JSON parse error at byte 2: expected digit");
    ("1e", "JSON parse error at byte 2: expected digit");
    ("1e+", "JSON parse error at byte 3: expected digit");
    ("-a", "JSON parse error at byte 1: expected digit");
    ("01", "JSON parse error at byte 1: trailing garbage after value");
    ("[01]", "JSON parse error at byte 2: expected , or ] in array");
    ("\"a\001b\"", "JSON parse error at byte 3: raw control character in string");
    ("\"tab\tin\"", "JSON parse error at byte 5: raw control character in string");
    ("[1] x", "JSON parse error at byte 4: trailing garbage after value");
    ("1 2", "JSON parse error at byte 2: trailing garbage after value");
    ("{\"a\":1}}", "JSON parse error at byte 7: trailing garbage after value");
    ("nul", "JSON parse error at byte 0: expected null");
    ("fals", "JSON parse error at byte 0: expected false");
    ("[1 2]", "JSON parse error at byte 3: expected , or ] in array");
    ("{\"a\" 1}", "JSON parse error at byte 5: expected :");
    ("{1:2}", "JSON parse error at byte 1: expected \"");
    ("{\"a\":1,}", "JSON parse error at byte 7: expected \"");
    ("[", "JSON parse error at byte 1: unexpected end of input");
    ("\"abc\\", "JSON parse error at byte 5: unterminated escape");
    ("@", "JSON parse error at byte 0: unexpected character '@'");
    ("  ", "JSON parse error at byte 2: unexpected end of input");
    ("[\"a\",]", "JSON parse error at byte 5: unexpected character ']'");
    ("{\"a\":1 \"b\":2}", "JSON parse error at byte 7: expected , or } in object");
    ("-01", "JSON parse error at byte 2: trailing garbage after value");
    ("2.e5", "JSON parse error at byte 2: expected digit");
    (".5", "JSON parse error at byte 0: unexpected character '.'");
    ("+1", "JSON parse error at byte 0: unexpected character '+'");
    ("1.5e", "JSON parse error at byte 4: expected digit");
    ("[1,2", "JSON parse error at byte 4: expected , or ] in array");
    ("{\"id\":\"x\",\"kernel\":saxpy}", "JSON parse error at byte 19: unexpected character 's'");
  ]

let test_json_error_strings () =
  List.iter
    (fun (input, want) ->
      match Obs.Json.parse input with
      | Ok v -> Alcotest.failf "%S parsed to %s" input (Obs.Json.render v)
      | Error got -> checks (Printf.sprintf "error for %S" input) want got)
    json_errors

(* A high surrogate followed by a low-surrogate escape is one scalar,
   written as its 4-byte UTF-8 form; a surrogate without its partner
   still passes through as its 3-byte form. *)
let test_json_surrogate_pairs () =
  let str s = Ok (Obs.Json.Str s) in
  let check name input want = checkb name true (Obs.Json.parse input = want) in
  check "a pair is one 4-byte scalar" {|"\ud83d\ude00"|} (str "\xf0\x9f\x98\x80");
  check "upper-case hex" {|"\uD83D\uDE00"|} (str "\xf0\x9f\x98\x80");
  check "first and last scalars of the range" {|"\ud800\udc00\udbff\udfff"|}
    (str "\xf0\x90\x80\x80\xf4\x8f\xbf\xbf");
  check "within text" {|"r\ud83d\ude00!"|} (str "r\xf0\x9f\x98\x80!");
  check "lone high" {|"\ud83d"|} (str "\xed\xa0\xbd");
  check "lone low" {|"\ude00"|} (str "\xed\xb8\x80");
  check "high, then a non-surrogate escape" {|"\ud83dA\u0041"|} (str "\xed\xa0\xbdAA");
  check "high before a non-low escape" {|"\ud83d\u0041"|} (str "\xed\xa0\xbdA");
  check "high, high, low" {|"\ud83d\ud83d\ude00"|} (str "\xed\xa0\xbd\xf0\x9f\x98\x80");
  check "high, then another escape" {|"\ud83d\n"|} (str "\xed\xa0\xbd\n");
  checks "the printer writes the raw bytes back" "\"r\xf0\x9f\x98\x80\""
    (Obs.Json.render (Obs.Json.Str "r\xf0\x9f\x98\x80"))

(* Every number reads bit-identical to [float_of_string] of its text:
   the integer fast path (at most 15 digits) and the general one. *)
let qcheck_json_numbers =
  let gen =
    let open QCheck.Gen in
    let digits lo hi =
      map (String.concat "") (list_size (int_range lo hi) (map string_of_int (int_bound 9)))
    in
    let int_part =
      oneof
        [ return "0"; map2 (fun d rest -> string_of_int (1 + d) ^ rest) (int_bound 8) (digits 0 19) ]
    in
    let opt g = oneof [ return ""; g ] in
    map4
      (fun neg i frac exp -> (if neg then "-" else "") ^ i ^ frac ^ exp)
      bool int_part
      (opt (map (fun d -> "." ^ d) (digits 1 6)))
      (opt (map2 (fun s d -> "e" ^ s ^ d) (oneofl [ ""; "+"; "-" ]) (digits 1 3)))
  in
  QCheck.Test.make ~name:"numbers read as float_of_string" ~count:1000
    (QCheck.make ~print:Fun.id gen)
    (fun s ->
      match Obs.Json.parse s with
      | Ok (Obs.Json.Num f) ->
          Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float (float_of_string s))
      | _ -> false)

let json_gen =
  let open QCheck.Gen in
  let str =
    map (String.concat "")
      (list_size (int_bound 5)
         (oneofl [ "a"; "Z9"; " "; "\""; "\\"; "/"; "\n"; "\r"; "\t"; "\001"; "\031"; "\127";
                   "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x98\x80"; "\255" ]))
  in
  let num =
    oneof
      [
        oneofl [ 0.0; -0.0; 0.1; 1e-7; -3.5e300; 2.0 ** 53.0; -.(2.0 ** 53.0); 5e-324 ];
        map float_of_int (int_range (-(1 lsl 53)) (1 lsl 53));
        map
          (fun bits ->
            let f = Int64.float_of_bits bits in
            if Float.is_finite f then f else 1.5)
          ui64;
      ]
  in
  let leaf =
    oneof
      [
        return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun f -> Obs.Json.Num f) num;
        map (fun s -> Obs.Json.Str s) str;
      ]
  in
  sized
    (fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Obs.Json.Arr l) (list_size (int_bound 4) (self (n / 3))));
               ( 1,
                 map
                   (fun l -> Obs.Json.Obj l)
                   (list_size (int_bound 4) (pair str (self (n / 3)))) );
             ]))

let qcheck_json_roundtrip =
  QCheck.Test.make ~name:"parse (render v) = Ok v" ~count:500
    (QCheck.make ~print:Obs.Json.render json_gen)
    (fun v -> Obs.Json.parse (Obs.Json.render v) = Ok v)

(* ---------- spans ---------- *)

let test_span_nesting_and_order () =
  let tr = Obs.Trace.create () in
  let r =
    Obs.Trace.span tr "outer" (fun () ->
        Obs.Trace.span tr ~cat:"inner-cat" "inner" (fun () -> 41) + 1)
  in
  checki "span returns the body's value" 42 r;
  match Obs.Trace.spans tr with
  | [ outer; inner ] ->
      checks "outer first (earlier start, longer)" "outer" outer.Obs.Trace.name;
      checks "inner second" "inner" inner.Obs.Trace.name;
      checks "category recorded" "inner-cat" inner.Obs.Trace.cat;
      checkb "inner starts within outer" true (inner.Obs.Trace.ts >= outer.Obs.Trace.ts);
      checkb "inner ends within outer" true
        (inner.Obs.Trace.ts +. inner.Obs.Trace.dur
        <= outer.Obs.Trace.ts +. outer.Obs.Trace.dur +. 1e-9);
      checkb "durations non-negative" true
        (outer.Obs.Trace.dur >= 0.0 && inner.Obs.Trace.dur >= 0.0)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_span_survives_exception () =
  let tr = Obs.Trace.create () in
  (try Obs.Trace.span tr "boom" (fun () -> failwith "x") with Failure _ -> ());
  checki "span published on exception" 1 (List.length (Obs.Trace.spans tr))

let test_off_records_nothing () =
  let r = Ctx.span Ctx.off "never" (fun () -> 7) in
  checki "off span still runs the body" 7 r;
  Ctx.incr Ctx.off "never.counter";
  checki "off trace empty" 0 (List.length (Obs.Trace.spans (Ctx.trace Ctx.off)));
  checki "off metrics empty" 0 (List.length (Obs.Metrics.dump (Ctx.metrics Ctx.off)))

(* ---------- counters ---------- *)

let test_counter_basics () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "b";
  Obs.Metrics.add m "a" 5;
  Obs.Metrics.add m "b" 2;
  Obs.Metrics.set_max m "c" 9;
  Obs.Metrics.set_max m "c" 3;
  checki "get a" 5 (Obs.Metrics.get m "a");
  checki "get absent" 0 (Obs.Metrics.get m "zzz");
  checkb "dump is name-sorted" true
    (Obs.Metrics.dump m = [ ("a", 5); ("b", 3); ("c", 9) ]);
  let dst = Obs.Metrics.create () in
  Obs.Metrics.add dst "b" 1;
  Obs.Metrics.merge ~into:dst m;
  checkb "merge adds" true (Obs.Metrics.dump dst = [ ("a", 5); ("b", 4); ("c", 9) ])

(* running-max 2x2: the bound probe misses at II=2, so the solver runs *)
let map_with_metrics seed =
  let k = Kernels.find "running-max" in
  let p =
    Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:(Ocgra_arch.Cgra.uniform ~rows:2 ~cols:2 ()) ()
  in
  let obs = Ctx.v ~trace:Obs.Trace.off ~metrics:(Obs.Metrics.create ()) () in
  let o = Mapper.run (Ocgra_mappers.Registry.find "sat") ~seed ~obs p in
  checkb "mapped" true (o.Mapper.mapping <> None);
  Obs.Metrics.dump (Ctx.metrics obs)

let test_counters_deterministic () =
  (* one worker, one seed: the counter dump is a pure function of the
     run, so two runs must agree exactly (the smoke test checks the
     same property end-to-end through the CLI, byte-for-byte) *)
  let a = map_with_metrics 11 in
  let b = map_with_metrics 11 in
  checkb "same seed, same counters" true (a = b);
  checkb "engine counters are live" true
    (List.exists (fun (name, v) -> name = "sat.decisions" && v > 0) a)

(* ---------- concurrent tracing and the pool ---------- *)

let test_trace_merge_across_workers () =
  let obs = Ctx.create () in
  let tasks = Array.init 16 (fun i () -> Ctx.span obs "task-body" (fun () -> i * 2)) in
  let out = Ocgra_par.Pool.run ~workers:4 ~obs tasks in
  checkb "results correct" true (out = Array.init 16 (fun i -> i * 2));
  (* every task publishes two spans (its own + the pool's wrapper), all
     CAS-pushed onto one shared list: none may be lost *)
  let spans = Obs.Trace.spans (Ctx.trace obs) in
  checki "16 task-body spans survive the merge" 16
    (List.length (List.filter (fun s -> s.Obs.Trace.name = "task-body") spans));
  checki "16 pool wrapper spans" 16
    (List.length
       (List.filter
          (fun s -> String.length s.Obs.Trace.name >= 5 && String.sub s.Obs.Trace.name 0 5 = "pool:")
          spans));
  checkb "spans sorted by start time" true
    (let rec sorted = function
       | a :: (b :: _ as rest) -> a.Obs.Trace.ts <= b.Obs.Trace.ts && sorted rest
       | _ -> true
     in
     sorted spans);
  (* per-worker claim tallies must account for every task exactly once *)
  let m = Ctx.metrics obs in
  let claimed =
    List.fold_left
      (fun acc (name, v) ->
        if String.length name >= 10 && String.sub name 0 10 = "pool.tasks" then acc + v else acc)
      0 (Obs.Metrics.dump m)
  in
  checki "every task claimed exactly once" 16 claimed

(* ---------- exporters ---------- *)

let test_chrome_trace_valid_json () =
  let obs = Ctx.create () in
  ignore
    (Ocgra_par.Pool.run ~workers:4 ~obs
       (Array.init 8 (fun i () ->
            Ctx.span obs ~args:[ ("i", string_of_int i); ("quote", "a\"b\\c\nd") ] "work"
              (fun () -> i))));
  let json = exported ".json" (Obs.Export.write_chrome_trace (Ctx.trace obs)) in
  checkb "chrome trace is valid JSON" true (json_valid json);
  checkb "has traceEvents" true
    (String.length json > 20 && String.sub json 0 16 = "{\"traceEvents\":[")

let test_metrics_exports () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.add m "sat.conflicts" 12;
  Obs.Metrics.add m "weird\"name" 1;
  checkb "metrics JSON valid" true (json_valid (exported ".json" (Obs.Export.write_metrics m)));
  let kv = exported ".kv" (Obs.Export.write_metrics m) in
  checkb "kv has both lines" true
    (String.split_on_char '\n' kv |> List.exists (fun l -> l = "sat.conflicts=12"));
  let empty = exported ".json" (Obs.Export.write_metrics (Obs.Metrics.create ())) in
  checkb "empty metrics still valid JSON" true (json_valid empty)

(* ---------- the harness trail ---------- *)

let failing_tier =
  Mapper.make ~name:"never" ~citation:"test" ~scope:Taxonomy.Temporal_mapping
    ~approach:Taxonomy.Heuristic (fun _p _rng _dl _obs ->
      Mapper.outcome ~attempts:1 ~note:"synthetic failure" None)

let test_harness_run_trail () =
  let k = Kernels.dot_product () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 () in
  let chain = [ failing_tier; Ocgra_mappers.Registry.find "modulo-greedy" ] in
  let o = Mapper.Harness.run ~seed:7 ~retries:0 ~deadline_s:30.0 chain p in
  checkb "mapped by tier 2" true (o.Mapper.mapping <> None);
  checki "one record per try" 2 (List.length o.Mapper.trail);
  (match o.Mapper.trail with
  | [ first; second ] ->
      checks "tier 1 name" "never" first.Mapper.tier;
      checkb "tier 1 failed" true (first.Mapper.verdict = Mapper.Failed);
      checks "tier 2 name" "modulo-greedy" second.Mapper.tier;
      checkb "tier 2 won" true (second.Mapper.verdict = Mapper.Won);
      checkb "elapsed recorded" true (first.Mapper.took_s >= 0.0 && second.Mapper.took_s >= 0.0)
  | _ -> Alcotest.fail "expected exactly two trail records");
  checkb "report renders" true
    (String.length (Mapper.report_to_string (List.hd o.Mapper.trail)) > 0)

let test_race_trail_verdicts () =
  let k = Kernels.dot_product () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 () in
  let obs = Ctx.v ~trace:Obs.Trace.off ~metrics:(Obs.Metrics.create ()) () in
  let chain = [ failing_tier; Ocgra_mappers.Registry.find "modulo-greedy" ] in
  let o = Mapper.Harness.race ~seed:7 ~deadline_s:30.0 ~workers:2 ~obs chain p in
  checkb "race mapped" true (o.Mapper.mapping <> None);
  checki "one record per tier" 2 (List.length o.Mapper.trail);
  let winner = List.filter (fun r -> r.Mapper.verdict = Mapper.Won) o.Mapper.trail in
  checki "exactly one winner" 1 (List.length winner);
  checks "winner is the real mapper" "modulo-greedy" (List.hd winner).Mapper.tier;
  List.iter
    (fun r ->
      checkb
        (Printf.sprintf "tier %s has a non-Won verdict" r.Mapper.tier)
        true
        (r.Mapper.verdict <> Mapper.Won))
    (List.filter (fun r -> r.Mapper.tier = "never") o.Mapper.trail);
  (* the forked per-tier sinks were absorbed back into [obs] *)
  checkb "absorbed counters visible" true
    (Obs.Metrics.get (Ctx.metrics obs) "mapper.runs" >= 2)

(* ---------- histograms ---------- *)

(* The bucket lower bound of [v]: the p50 of a histogram holding [v]
   alone, since percentiles are bucket lower bounds. *)
let bucket_lo_of v =
  let h = Obs.Hist.create () in
  Obs.Hist.observe h "v" v;
  match Obs.Hist.dump h with [ (_, s) ] -> s.Obs.Hist.p50 | _ -> Alcotest.fail "one histogram"

let test_hist_buckets () =
  (* small values are exact *)
  for v = 1 to 7 do
    checki (Printf.sprintf "bucket_lo exact at %d" v) v (bucket_lo_of v)
  done;
  checki "non-positive values share bucket 0" 0 (bucket_lo_of 0);
  checki "negative too" 0 (bucket_lo_of (-5));
  (* monotone in the value, lower bound never above the value; the
     largest value still lands in a bucket *)
  let prev = ref (-1) in
  List.iter
    (fun v ->
      let lo = bucket_lo_of v in
      checkb (Printf.sprintf "bucket monotone at %d" v) true (lo >= !prev);
      checkb (Printf.sprintf "lower bound <= value at %d" v) true (lo <= v);
      prev := lo)
    [ 1; 2; 7; 8; 9; 15; 16; 100; 1_000; 65_536; 1_000_000; max_int / 2; max_int ]

let test_hist_summary () =
  let h = Obs.Hist.create () in
  for v = 1 to 100 do
    Obs.Hist.observe h "lat" v
  done;
  (match Obs.Hist.dump h with
  | [ (name, s) ] ->
      checks "one histogram" "lat" name;
      checki "count" 100 s.Obs.Hist.count;
      checki "sum" 5050 s.Obs.Hist.sum;
      checki "max is exact" 100 s.Obs.Hist.max;
      checkb "p50 is the median's bucket lower bound" true
        (s.Obs.Hist.p50 >= 40 && s.Obs.Hist.p50 <= 50);
      checkb "p99 lands in the tail" true (s.Obs.Hist.p99 >= 75 && s.Obs.Hist.p99 <= 100);
      checkb "quantiles ordered" true
        (s.Obs.Hist.p50 <= s.Obs.Hist.p90
        && s.Obs.Hist.p90 <= s.Obs.Hist.p99
        && s.Obs.Hist.p99 <= s.Obs.Hist.max)
  | l -> Alcotest.failf "expected 1 histogram, got %d" (List.length l));
  checkb "off sink records nothing" true
    (Obs.Hist.observe Obs.Hist.off "x" 1;
     Obs.Hist.dump Obs.Hist.off = [])

let qcheck_hist_merge_order_invariant =
  (* recording a stream into one sink must equal recording any
     partition of it into two sinks — the second half reversed — and
     merging: the dump is a function of the multiset only *)
  QCheck.Test.make ~name:"hist merge is order- and partition-invariant" ~count:100
    QCheck.(pair (list (pair (int_range 0 2) (int_range (-4) 100_000))) small_int)
    (fun (stream, cut) ->
      let names = [| "a"; "b"; "c" |] in
      let record h l = List.iter (fun (i, v) -> Obs.Hist.observe h names.(i) v) l in
      let all = Obs.Hist.create () in
      record all stream;
      let k = match stream with [] -> 0 | _ -> cut mod (List.length stream + 1) in
      let h1 = Obs.Hist.create () and h2 = Obs.Hist.create () in
      record h1 (List.filteri (fun i _ -> i < k) stream);
      record h2 (List.rev (List.filteri (fun i _ -> i >= k) stream));
      Obs.Hist.merge ~into:h1 h2;
      Obs.Hist.dump h1 = Obs.Hist.dump all)

let test_hist_parallel_deterministic () =
  (* one shared sink pounded from 4 domains: the export must be
     byte-identical to the sequential run, since bucket bumps commute *)
  let run workers =
    let h = Obs.Hist.create () in
    let tasks =
      Array.init 64 (fun i () ->
          Obs.Hist.observe h "work" (i * 37 mod 101);
          Obs.Hist.observe h "pow2" (1 lsl (i mod 30)))
    in
    ignore (Ocgra_par.Pool.run ~workers tasks);
    exported ".kv" (Obs.Export.write_metrics ~hists:h (Obs.Metrics.create ()))
  in
  checks "1 vs 4 workers byte-identical" (run 1) (run 4)

let test_gauge_merge_not_summed () =
  (* regression: merge used to fold every cell with [+], double-counting
     gauges when a fork was absorbed *)
  let a = Obs.Metrics.create () and b = Obs.Metrics.create () in
  Obs.Metrics.set_max a "gauge.max" 9;
  Obs.Metrics.set_max b "gauge.max" 4;
  Obs.Metrics.add a "counter" 2;
  Obs.Metrics.add b "counter" 3;
  Obs.Metrics.merge ~into:a b;
  checki "counters sum" 5 (Obs.Metrics.get a "counter");
  checki "set_max folds by max, never sum" 9 (Obs.Metrics.get a "gauge.max")

(* ---------- the event log ---------- *)

let test_events_jsonl_valid () =
  let e = Obs.Events.create () in
  Obs.Events.emit e ~cat:"sat" "sat.ii"
    [ ("ii", Obs.Events.Int 4); ("verdict", Obs.Events.Str "unsat") ];
  Obs.Events.emit e "weird" [ ("s", Obs.Events.Str "a\"b\\c\nd\te") ];
  Obs.Events.emit e "empty" [];
  let lines =
    String.split_on_char '\n' (exported ".jsonl" (Obs.Export.write_events e))
    |> List.filter (fun l -> l <> "")
  in
  checki "one line per event" 3 (List.length lines);
  List.iter (fun l -> checkb ("line is valid JSON: " ^ l) true (json_valid l)) lines

let test_events_bounded_and_absorb () =
  let e = Obs.Events.create ~cap:4 () in
  for i = 0 to 9 do
    Obs.Events.emit e "tick" [ ("i", Obs.Events.Int i) ]
  done;
  checki "retained at the cap" 4 (Obs.Events.count e);
  checki "drops counted" 6 (Obs.Events.dropped e);
  checkb "every jsonl line (dropped record included) is valid JSON" true
    (String.split_on_char '\n' (exported ".jsonl" (Obs.Export.write_events e))
    |> List.filter (fun l -> l <> "")
    |> List.for_all json_valid);
  let into = Obs.Events.create () in
  Obs.Events.emit into "first" [];
  Obs.Events.absorb ~into e;
  let names = List.map (fun ev -> ev.Obs.Events.name) (Obs.Events.events into) in
  checkb "absorb appends in order after the host's own events" true
    (names = [ "first"; "tick"; "tick"; "tick"; "tick" ])

(* ---------- bench snapshot diffing ---------- *)

let write_tmp name contents =
  let path = Filename.concat (Filename.get_temp_dir_name ()) name in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let snapshot_src ?(ii = "3") ?(proven = false) ?(hits = 40) ~time ~conflicts () =
  Printf.sprintf
    "{\n\
     \"schema\": 1,\n\
     \"bench\": \"unit\",\n\
     \"kernels\": [ { \"kernel\": \"k1\", \"ii\": %s, \"conflicts\": %d, \"map_time_s\": %s, \
     \"proven_optimal\": %b, \"time_reduced\": true, \"speedup\": 2.5 } ],\n\
     \"counts\": { \"hits\": %d }\n\
     }\n"
    ii conflicts time proven hits

let load_ok path =
  match Obs.Bench_diff.load path with Ok s -> s | Error e -> Alcotest.fail e

let diff_ok ?tol_time ~baseline ~candidate () =
  match Obs.Bench_diff.diff ?tol_time ~baseline ~candidate () with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let test_bench_diff_self () =
  let snap = load_ok (write_tmp "bench_self.json" (snapshot_src ~time:"0.010" ~conflicts:120 ())) in
  let r = diff_ok ~baseline:snap ~candidate:snap () in
  checkb "self-diff is clean" true (bench_ok r);
  checkb "checked some leaves" true (r.Obs.Bench_diff.checked > 0);
  checki "no failures" 0 (List.length r.Obs.Bench_diff.failures);
  checkb "human rendering non-empty" true (String.length (Obs.Bench_diff.render_human r) > 0);
  checkb "machine rendering is valid JSON" true (json_valid (Obs.Json.render (Obs.Bench_diff.to_json r)))

let test_bench_diff_time_regression () =
  let baseline =
    load_ok (write_tmp "bench_base.json" (snapshot_src ~time:"0.0100" ~conflicts:120 ()))
  in
  let candidate =
    load_ok (write_tmp "bench_cand.json" (snapshot_src ~time:"0.0110" ~conflicts:120 ()))
  in
  (* +10% wall clock: flagged under a 5% tolerance ... *)
  let r = diff_ok ~tol_time:0.05 ~baseline ~candidate () in
  checkb "10% time regression flagged at 5% tolerance" false (bench_ok r);
  (match r.Obs.Bench_diff.failures with
  | [ { Obs.Bench_diff.cls = Obs.Bench_diff.Time rel; _ } ] ->
      checkb "relative change is ~+10%" true (rel > 0.09 && rel < 0.11)
  | l -> Alcotest.failf "expected exactly one wall-clock failure, got %d" (List.length l));
  (* ... and absorbed by the default generous one *)
  checkb "10% passes the default 25% tolerance" true
    (bench_ok (diff_ok ~baseline ~candidate ()))

(* every non-time leaf is exact in both directions: a change that looks
   better fails the gate just like one that looks worse *)
let test_bench_diff_count_exact () =
  let src ?ii ?proven ?hits conflicts =
    snapshot_src ?ii ?proven ?hits ~time:"0.0100" ~conflicts ()
  in
  let exact_change name ?(base = src 120) cand =
    let baseline = load_ok (write_tmp "bench_exact_base.json" base) in
    let candidate = load_ok (write_tmp "bench_exact_cand.json" cand) in
    let r = diff_ok ~baseline ~candidate () in
    checkb (name ^ " fails the gate") false (bench_ok r);
    match r.Obs.Bench_diff.failures with
    | [ { Obs.Bench_diff.cls = Obs.Bench_diff.Exact; _ } ] -> ()
    | l -> Alcotest.failf "%s: expected exactly one exact-leaf failure, got %d" name (List.length l)
  in
  exact_change "one extra conflict" (src 121);
  exact_change "one conflict fewer" (src 119);
  exact_change "proven_optimal false -> true" (src ~proven:true 120);
  exact_change "one hit fewer" (src ~hits:39 120);
  exact_change "ii null -> 3" ~base:(src ~ii:"null" 120) (src 120)

let test_bench_diff_stamp_guard () =
  (* an unstamped file refuses to load ... *)
  (match Obs.Bench_diff.load (write_tmp "bench_unstamped.json" "{\"kernels\": []}\n") with
  | Ok _ -> Alcotest.fail "unstamped snapshot must not load"
  | Error e -> checkb "error names the stamp" true (String.length e > 0));
  (* ... and stamped-but-different snapshots refuse to diff *)
  let a = load_ok (write_tmp "bench_s1.json" (snapshot_src ~time:"0.01" ~conflicts:1 ())) in
  let other =
    "{\n\"schema\": 2,\n\"bench\": \"unit\",\n\"kernels\": []\n}\n"
  in
  let b = load_ok (write_tmp "bench_s2.json" other) in
  match Obs.Bench_diff.diff ~baseline:a ~candidate:b () with
  | Ok _ -> Alcotest.fail "schema mismatch must be an error"
  | Error e -> checkb "mismatch error is descriptive" true (String.length e > 0)

(* The committed snapshots, which the test's dune deps copy next to
   the test directory.  CI regenerates BENCH_PR7/8/10 and gates them
   with the exact engine, so an invariant that holds here holds on
   every regenerated snapshot. *)
let test_committed_snapshots () =
  let root = Filename.dirname (Filename.dirname Sys.executable_name) in
  let committed name = load_ok (Filename.concat root name) in
  List.iter
    (fun name ->
      let s = committed name in
      checkb (name ^ " self-diffs clean") true
        (bench_ok (diff_ok ~baseline:s ~candidate:s ())))
    [ "BENCH_PR6.json"; "BENCH_PR7.json"; "BENCH_PR8.json"; "BENCH_PR10.json" ];
  let get path j =
    match List.fold_left (fun j k -> Option.bind j (Obs.Json.member k)) (Some j) path with
    | Some v -> v
    | None -> Alcotest.failf "missing %s" (String.concat "." path)
  in
  let is_true path j = Obs.Json.to_bool (get path j) = Some true in
  let pr8 = (committed "BENCH_PR8.json").Obs.Bench_diff.root in
  let kernels = Option.value ~default:[] (Obs.Json.to_list (get [ "kernels" ] pr8)) in
  checkb "BENCH_PR8 lists kernels" true (kernels <> []);
  List.iter
    (fun k ->
      let name = Option.value ~default:"?" (Obs.Json.to_string (get [ "kernel" ] k)) in
      checkb (name ^ ": cold and incremental sweeps reach the same II") true
        (is_true [ "same_ii" ] k);
      checkb (name ^ ": the presolve never refutes the II the sweep maps at") true
        (let ii path = Obs.Json.to_int (get path k) in
         match (ii [ "presolve_ii" ], ii [ "incremental"; "ii" ]) with
         | Some lb, Some ii -> lb <= ii
         | _ -> false))
    kernels;
  checkb "the incremental sweep spends fewer conflicts in total" true
    (is_true [ "totals"; "conflicts_reduced" ] pr8);
  let pr10 = (committed "BENCH_PR10.json").Obs.Bench_diff.root in
  checkb "BENCH_PR10 demonstrates the >=100x warm-vs-cold claim" true
    (is_true [ "speedup_ge_100x" ] pr10);
  checkb "BENCH_PR10 has fault-growth repair hits" true
    (match Obs.Json.to_int (get [ "counts"; "repair_hits" ] pr10) with
    | Some n -> n > 0
    | None -> false)

(* ---------- event determinism through the harness ---------- *)

let events_of_run seed =
  let k = Kernels.dot_product () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 () in
  let obs =
    Ctx.v ~events:(Obs.Events.create ()) ~trace:Obs.Trace.off ~metrics:(Obs.Metrics.create ())
      ()
  in
  let chain = [ failing_tier; Ocgra_mappers.Registry.find "modulo-greedy" ] in
  let o = Mapper.Harness.run ~seed ~retries:0 ~deadline_s:30.0 ~obs chain p in
  checkb "mapped" true (o.Mapper.mapping <> None);
  exported ".jsonl" (Obs.Export.write_events (Ctx.events obs))

let test_harness_events_deterministic () =
  let a = events_of_run 7 and b = events_of_run 7 in
  checks "same seed, byte-identical event log" a b;
  checkb "tier verdicts present" true
    (String.split_on_char '\n' a
    |> List.exists (fun l ->
           json_valid l
           && String.length l > 0
           &&
           let has needle =
             let nl = String.length needle and ll = String.length l in
             let rec at i = i + nl <= ll && (String.sub l i nl = needle || at (i + 1)) in
             at 0
           in
           has "harness.tier" && has "won"))

let () =
  Alcotest.run "obs"
    [
      ( "json-checker",
        [ Alcotest.test_case "accepts good, rejects bad" `Quick test_json_checker_sanity ] );
      ( "json",
        [
          Alcotest.test_case "printer layout" `Quick test_json_render_layout;
          Alcotest.test_case "bad \\u escapes are errors" `Quick test_json_bad_unicode_escape;
          Alcotest.test_case "error strings pinned" `Quick test_json_error_strings;
          Alcotest.test_case "surrogate pairs" `Quick test_json_surrogate_pairs;
          QCheck_alcotest.to_alcotest qcheck_json_numbers;
          QCheck_alcotest.to_alcotest qcheck_json_roundtrip;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and order" `Quick test_span_nesting_and_order;
          Alcotest.test_case "published on exception" `Quick test_span_survives_exception;
          Alcotest.test_case "off context records nothing" `Quick test_off_records_nothing;
        ] );
      ( "counters",
        [
          Alcotest.test_case "basics" `Quick test_counter_basics;
          Alcotest.test_case "deterministic at one worker" `Quick test_counters_deterministic;
        ] );
      ( "concurrency",
        [ Alcotest.test_case "trace merge across 4 workers" `Quick test_trace_merge_across_workers ]
      );
      ( "exporters",
        [
          Alcotest.test_case "chrome trace valid JSON" `Quick test_chrome_trace_valid_json;
          Alcotest.test_case "metrics JSON and kv" `Quick test_metrics_exports;
        ] );
      ( "harness-trail",
        [
          Alcotest.test_case "sequential trail" `Quick test_harness_run_trail;
          Alcotest.test_case "race trail verdicts" `Quick test_race_trail_verdicts;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "bucket scheme" `Quick test_hist_buckets;
          Alcotest.test_case "summary quantiles" `Quick test_hist_summary;
          QCheck_alcotest.to_alcotest qcheck_hist_merge_order_invariant;
          Alcotest.test_case "parallel recording deterministic" `Quick
            test_hist_parallel_deterministic;
          Alcotest.test_case "gauges merge without summing" `Quick test_gauge_merge_not_summed;
        ] );
      ( "events",
        [
          Alcotest.test_case "jsonl lines are valid JSON" `Quick test_events_jsonl_valid;
          Alcotest.test_case "bounded log and absorb order" `Quick
            test_events_bounded_and_absorb;
          Alcotest.test_case "harness event log deterministic" `Quick
            test_harness_events_deterministic;
        ] );
      ( "bench-diff",
        [
          Alcotest.test_case "identical snapshots self-diff clean" `Quick test_bench_diff_self;
          Alcotest.test_case "10% time regression flagged" `Quick
            test_bench_diff_time_regression;
          Alcotest.test_case "counts compare exactly by default" `Quick
            test_bench_diff_count_exact;
          Alcotest.test_case "stamp and schema guard" `Quick test_bench_diff_stamp_guard;
          Alcotest.test_case "committed snapshots and their invariants" `Quick
            test_committed_snapshots;
        ] );
    ]
