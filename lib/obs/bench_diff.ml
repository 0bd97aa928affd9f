(* The gate over BENCH_*.json snapshots.

   A snapshot must carry a top-level "schema" version and "bench"
   name; diffing refuses mismatched pairs outright (comparing a
   repair-ladder run against a SAT sweep is meaningless, and a schema
   bump means the shapes diverged on purpose).  Matching snapshots
   are walked structurally — objects by key, arrays index-aligned —
   and every leaf is judged by its key name:

   - wall-clock leaves (suffix "_s", or "time" in the key) are noisy:
     a candidate may be up to [tol_time] slower, and faster always
     passes;
   - "speedup" leaves and boolean time verdicts (time_reduced) are
     skipped: they re-derive from the times already compared;
   - every other leaf is deterministic and must equal the baseline
     exactly: counts, "ii", boolean verdicts, names, nulls.  A lower
     conflict count, a newly mapped II or a false -> true flag fails
     too — a change that really is better re-commits the snapshot.

   Shape drift (a missing key, an array length, a leaf against an
   object or array) is a structural error.  Any failure or structural
   error fails the gate. *)

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

type cls = Time of float | Exact
type finding = { at : string; cls : cls; base : Json.t; cand : Json.t }

type report = {
  baseline : string;
  candidate : string;
  bench : string;
  schema : int;
  checked : int;
  failures : finding list;
  structural : string list;
}

let ok r = r.failures = [] && r.structural = []

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let is_leaf = function Json.Obj _ | Json.Arr _ -> false | _ -> true

let diff ?(tol_time = 0.25) ~(baseline : snapshot) ~(candidate : snapshot) () =
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
    let failures = ref [] and structural = ref [] in
    let struct_err at msg = structural := Printf.sprintf "%s: %s" at msg :: !structural in
    let leaf at key (base : Json.t) (cand : Json.t) =
      let is_time = Filename.check_suffix key "_s" || contains key "time" in
      match (base, cand) with
      | _ when contains key "speedup" -> ()
      | Json.Bool _, Json.Bool _ when is_time -> ()
      | Json.Num b, Json.Num c when is_time ->
          incr checked;
          let rel = if b = c then 0.0 else (c -. b) /. Float.abs b in
          if rel > tol_time then failures := { at; cls = Time rel; base; cand } :: !failures
      | _ ->
          incr checked;
          if base <> cand then failures := { at; cls = Exact; base; cand } :: !failures
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
      | _ when is_leaf base && is_leaf cand -> leaf at key base cand
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
        failures = List.rev !failures;
        structural = List.rev !structural;
      }
  end

let render_human r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "bench diff: %s (schema %d)\n  baseline:  %s\n  candidate: %s\n" r.bench
       r.schema r.baseline r.candidate);
  Buffer.add_string b
    (Printf.sprintf "  %d leaves checked, %d failures, %d structural errors\n" r.checked
       (List.length r.failures) (List.length r.structural));
  List.iter (fun msg -> Buffer.add_string b (Printf.sprintf "  STRUCTURAL %s\n" msg)) r.structural;
  List.iter
    (fun f ->
      let cls, rel =
        match f.cls with
        | Time rel -> ("time", Printf.sprintf " (%+.1f%%)" (100.0 *. rel))
        | Exact -> ("exact", "")
      in
      Buffer.add_string b
        (Printf.sprintf "  FAILED %-5s %-50s %s -> %s%s\n" cls f.at (Json.render f.base)
           (Json.render f.cand) rel))
    r.failures;
  Buffer.add_string b (if ok r then "verdict: OK\n" else "verdict: FAILED\n");
  Buffer.contents b

let to_json r =
  let finding f =
    let cls, rel =
      match f.cls with
      | Exact -> ("exact", [])
      | Time rel ->
          let rel = if Float.is_finite rel then Json.Num rel else Json.Str "inf" in
          ("time", [ ("rel", rel) ])
    in
    Json.Obj
      ([ ("path", Json.Str f.at); ("class", Json.Str cls); ("base", f.base); ("candidate", f.cand) ]
      @ rel)
  in
  Json.Obj
    [
      ("bench", Json.Str r.bench);
      ("schema", Json.int r.schema);
      ("baseline", Json.Str r.baseline);
      ("candidate", Json.Str r.candidate);
      ("checked", Json.int r.checked);
      ("ok", Json.Bool (ok r));
      ("failures", Json.Arr (List.map finding r.failures));
      ("structural", Json.Arr (List.map (fun m -> Json.Str m) r.structural));
    ]
