(* Per-layer attribution of a traced pass.

   Spans come from two places: the benchmark's own [bench:*] /
   [gate:*] spans around each layer call, and the spans the program
   already records ([map:<name>], [validate], [sat:ii=N],
   [repair:<rung>], [sim:run], [tier:*], [supervise:*], [pool:*]).
   Everything runs on one domain (one service worker, no race), so
   nesting is plain time containment and a span's self time is its
   duration minus that of its direct children. *)

module Trace = Ocgra_obs.Trace

(* The layer (module) a span's self time is charged to. *)
let layer_of name =
  match name with
  | "bench:compile" -> "core/problem"
  | "validate" -> "core/check"
  | "gate:validate" -> "core/check (gate replay)"
  | "bench:contexts" -> "core/contexts"
  | "sim:run" | "bench:sim" -> "sim/machine"
  | "bench:eval" -> "dfg/eval"
  | "bench:wire.parse" | "bench:wire.render" -> "svc/wire"
  | "bench:svc.submit" -> "svc/svc+cache"
  | "bench:canon.of_dfg" | "bench:canon.witness" -> "svc/canon (replay)"
  | _ when String.starts_with ~prefix:"map:" name -> "core/mapper+route"
  | _ when String.starts_with ~prefix:"tier:" name -> "core/mapper.harness"
  | _ when String.starts_with ~prefix:"sat:" name -> "lib/sat"
  | _ when String.starts_with ~prefix:"repair:" name -> "core/repair"
  | _ when String.starts_with ~prefix:"supervise:" name -> "par/supervise"
  | _ when String.starts_with ~prefix:"pool:" name -> "par/supervise"
  | _ -> "other:" ^ name

(* (span name, self seconds) for every span, in start order. *)
let self_times (spans : Trace.span list) =
  let out = ref [] in
  let stack = ref [] in
  let close (s, kids) = out := (s.Trace.name, s.Trace.dur -. !kids) :: !out in
  List.iter
    (fun (s : Trace.span) ->
      let rec pop () =
        match !stack with
        | ((top, _) as e) :: rest when top.Trace.ts +. top.Trace.dur <= s.Trace.ts ->
            stack := rest;
            close e;
            pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with (_, kids) :: _ -> kids := !kids +. s.Trace.dur | [] -> ());
      stack := (s, ref 0.0) :: !stack)
    spans;
  List.iter close !stack;
  List.rev !out

(* Seconds of the pass not covered by any top-level span: the
   benchmark's own loop, timers and bookkeeping. *)
let uncovered ~wall spans =
  let top = ref 0.0 and horizon = ref neg_infinity in
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.ts >= !horizon then begin
        top := !top +. s.Trace.dur;
        horizon := s.Trace.ts +. s.Trace.dur
      end)
    spans;
  wall -. !top

let sum_self selfs pred =
  List.fold_left (fun acc (name, self) -> if pred name then acc +. self else acc) 0.0 selfs

(* Self seconds per layer over [(wall, spans)] passes, largest first,
   with the time no span covers as the benchmark's own row. *)
let table passes =
  let tbl = Hashtbl.create 16 in
  let charge l s = Hashtbl.replace tbl l (s +. Option.value (Hashtbl.find_opt tbl l) ~default:0.0) in
  List.iter
    (fun (wall, spans) ->
      List.iter (fun (name, self) -> charge (layer_of name) self) (self_times spans);
      charge "bench (loop, gate)" (uncovered ~wall spans))
    passes;
  List.sort (fun (_, a) (_, b) -> compare b a) (List.of_seq (Hashtbl.to_seq tbl))
