(* Regression diffing over BENCH_*.json snapshots.

   A snapshot must carry a top-level "schema" version and "bench"
   name; diffing refuses mismatched pairs outright (comparing a
   repair-ladder run against a SAT sweep is meaningless, and a schema
   bump means the shapes diverged on purpose).  Matching snapshots
   are walked structurally — objects by key, arrays index-aligned —
   and every leaf is classified by its key name:

   - identity leaves (kernel/mapper/grid names, rungs, seeds, MII,
     step counts) must match exactly; a mismatch is a structural
     error, not a tolerance question;
   - "ii" is quality: integer, lower is better, no tolerance (a
     nullable II — mapping failed — against a number is a regression
     or an improvement depending on direction);
   - wall-clock leaves (suffix "_s", or "time" in the key) are noisy:
     compared lower-is-better under the generous [time_rel]
     tolerance; "speedup" and boolean time verdicts are skipped
     entirely (derived from the times already compared);
   - boolean verdicts (proven_optimal, same_ii, conflicts_reduced,
     replayed) regress when true flips to false;
   - every other number (conflicts, decisions, propagations,
     attempts, per-engine counters) is deterministic work:
     lower-is-better under [count_rel], which defaults to exact.

   The verdict is machine-consumable: regressions non-empty (or any
   structural error) means the gate fails. *)

type snapshot = { path : string; schema : int; bench : string; root : Json.t }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  match read_file path with
  | exception Sys_error msg -> Error msg
  | text -> (
      match Json.parse text with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok root -> (
          match (Json.member "schema" root, Json.member "bench" root) with
          | Some (Json.Num schema), Some (Json.Str bench)
            when Float.is_integer schema ->
              Ok { path; schema = int_of_float schema; bench; root }
          | _ ->
              Error
                (Printf.sprintf
                   "%s: not a stamped bench snapshot (top-level \"schema\" version and \
                    \"bench\" name required — re-run the bench to regenerate it)"
                   path)))

type tol = { time_rel : float; count_rel : float }

let default_tol = { time_rel = 0.25; count_rel = 0.0 }

type cls = Time | Count | Ii | Flag

type finding = {
  at : string;
  cls : cls;
  base : float;
  cand : float;
  rel : float; (* signed relative change, positive = worse *)
}

type report = {
  baseline : string;
  candidate : string;
  bench : string;
  schema : int;
  checked : int;
  regressions : finding list;
  improvements : finding list;
  structural : string list;
}

let ok r = r.regressions = [] && r.structural = []

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let structural_int_keys = [ "schema"; "seed"; "max_ii"; "steps_per_kernel"; "step"; "mii" ]

let classify key =
  if List.mem key structural_int_keys then `Structural
  else if contains key "speedup" then `Skip
  else if key = "ii" then `Ii
  else if Filename.check_suffix key "_s" || contains key "time" then `Time
  else `Count

let diff ?(tol = default_tol) ~(baseline : snapshot) ~(candidate : snapshot) () =
  if baseline.bench <> candidate.bench then
    Error
      (Printf.sprintf "bench mismatch: %s is %S but %s is %S — refusing to diff" baseline.path
         baseline.bench candidate.path candidate.bench)
  else if baseline.schema <> candidate.schema then
    Error
      (Printf.sprintf
         "schema mismatch: %s is schema %d but %s is schema %d — regenerate the older \
          snapshot before diffing"
         baseline.path baseline.schema candidate.path candidate.schema)
  else begin
    let checked = ref 0 in
    let regressions = ref [] and improvements = ref [] and structural = ref [] in
    let struct_err at msg = structural := Printf.sprintf "%s: %s" at msg :: !structural in
    let record at cls base cand rel tolerance =
      incr checked;
      let f = { at; cls; base; cand; rel } in
      if rel > tolerance then regressions := f :: !regressions
      else if rel < -.tolerance && rel < 0.0 then improvements := f :: !improvements
    in
    (* signed relative change for a lower-is-better quantity *)
    let rel_change base cand =
      if base = cand then 0.0
      else if base = 0.0 then if cand > 0.0 then infinity else neg_infinity
      else (cand -. base) /. Float.abs base
    in
    let leaf_num at key base cand =
      match classify key with
      | `Skip -> ()
      | `Structural ->
          incr checked;
          if base <> cand then
            struct_err at (Printf.sprintf "expected %g, candidate has %g" base cand)
      | `Ii -> record at Ii base cand (rel_change base cand) 0.0
      | `Time -> record at Time base cand (rel_change base cand) tol.time_rel
      | `Count -> record at Count base cand (rel_change base cand) tol.count_rel
    in
    let rec walk at key (base : Json.t) (cand : Json.t) =
      match (base, cand) with
      | Json.Obj bs, Json.Obj cs ->
          List.iter
            (fun (k, bv) ->
              match List.assoc_opt k cs with
              | None -> struct_err (at ^ "." ^ k) "key missing from candidate"
              | Some cv -> walk (at ^ "." ^ k) k bv cv)
            bs;
          List.iter
            (fun (k, _) ->
              if List.assoc_opt k bs = None then
                struct_err (at ^ "." ^ k) "key absent from baseline")
            cs
      | Json.Arr bs, Json.Arr cs ->
          if List.length bs <> List.length cs then
            struct_err at
              (Printf.sprintf "array length %d vs %d" (List.length bs) (List.length cs))
          else
            List.iteri
              (fun i (bv, cv) -> walk (Printf.sprintf "%s[%d]" at i) key bv cv)
              (List.combine bs cs)
      | Json.Num b, Json.Num c -> leaf_num at key b c
      | Json.Str b, Json.Str c ->
          incr checked;
          if b <> c then struct_err at (Printf.sprintf "expected %S, candidate has %S" b c)
      | Json.Bool b, Json.Bool c ->
          if contains key "time" || contains key "speedup" then ()
          else begin
            incr checked;
            if b <> c then begin
              let f =
                {
                  at;
                  cls = Flag;
                  base = (if b then 1.0 else 0.0);
                  cand = (if c then 1.0 else 0.0);
                  rel = (if b && not c then 1.0 else -1.0);
                }
              in
              if b then regressions := f :: !regressions else improvements := f :: !improvements
            end
          end
      | Json.Null, Json.Null -> incr checked
      | Json.Null, Json.Num c when key = "ii" ->
          (* baseline failed to map, candidate maps: strictly better *)
          record at Ii infinity c (-1.0) 0.0
      | Json.Num b, Json.Null when key = "ii" -> record at Ii b infinity 1.0 0.0
      | _ -> struct_err at "value kind differs between snapshots"
    in
    walk "$" "" baseline.root candidate.root;
    Ok
      {
        baseline = baseline.path;
        candidate = candidate.path;
        bench = baseline.bench;
        schema = baseline.schema;
        checked = !checked;
        regressions = List.rev !regressions;
        improvements = List.rev !improvements;
        structural = List.rev !structural;
      }
  end

let cls_name = function Time -> "time" | Count -> "count" | Ii -> "ii" | Flag -> "flag"

let fmt_value cls v =
  if v = infinity then "-"
  else
    match cls with
    | Time -> Printf.sprintf "%.6f" v
    | _ -> Printf.sprintf "%.0f" v

let fmt_rel rel =
  if rel = infinity then "+inf"
  else if rel = neg_infinity then "-inf"
  else Printf.sprintf "%+.1f%%" (100.0 *. rel)

let render_human r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "bench diff: %s (schema %d)\n  baseline:  %s\n  candidate: %s\n" r.bench
       r.schema r.baseline r.candidate);
  Buffer.add_string b
    (Printf.sprintf "  %d leaves checked, %d regressions, %d improvements, %d structural errors\n"
       r.checked
       (List.length r.regressions)
       (List.length r.improvements)
       (List.length r.structural));
  List.iter (fun msg -> Buffer.add_string b (Printf.sprintf "  STRUCTURAL %s\n" msg)) r.structural;
  let row verdict f =
    Buffer.add_string b
      (Printf.sprintf "  %-10s %-7s %-50s %12s -> %-12s %s\n" verdict (cls_name f.cls) f.at
         (fmt_value f.cls f.base) (fmt_value f.cls f.cand) (fmt_rel f.rel))
  in
  List.iter (row "REGRESSED") r.regressions;
  List.iter (row "improved") r.improvements;
  Buffer.add_string b (if ok r then "verdict: OK\n" else "verdict: REGRESSION\n");
  Buffer.contents b

let to_json r =
  let num v =
    if Float.is_finite v then Json.Num v else Json.Str (if v > 0.0 then "inf" else "-inf")
  in
  let finding f =
    Json.Obj
      [
        ("path", Json.Str f.at);
        ("class", Json.Str (cls_name f.cls));
        ("base", num f.base);
        ("candidate", num f.cand);
        ("rel", num f.rel);
      ]
  in
  Json.Obj
    [
      ("bench", Json.Str r.bench);
      ("schema", Json.int r.schema);
      ("baseline", Json.Str r.baseline);
      ("candidate", Json.Str r.candidate);
      ("checked", Json.int r.checked);
      ("ok", Json.Bool (ok r));
      ("regressions", Json.Arr (List.map finding r.regressions));
      ("improvements", Json.Arr (List.map finding r.improvements));
      ("structural", Json.Arr (List.map (fun m -> Json.Str m) r.structural));
    ]
