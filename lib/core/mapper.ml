(* The common mapper interface.

   Every technique in the framework — one per cell of Table I — is a
   value of [t]: a named, classified function from problem to (maybe)
   mapping.  [run] wraps the raw algorithm with the independent
   validator so an invalid mapping is reported as a failure, never as a
   success.  [Harness] adds the production wrapper: wall-clock
   deadlines, retries and an ordered fallback chain for degraded-array
   or budget-limited service.

   Techniques receive an [Ocgra_obs.Ctx.t] alongside the deadline:
   they record spans around their phases and flush their engine
   counters (SAT conflicts, B&B nodes, CP propagations, ...) into it.
   The default is [Ctx.off], whose every operation is one branch, so
   an untraced run does the same work it always did. *)

module Rng = Ocgra_util.Rng
module Obs = Ocgra_obs.Ctx

(* What happened to one tier try, machine-readable.  [Failed] covers
   both "technique gave up" and "produced an invalid mapping" (the
   latter is flagged by the INVALID prefix in [detail]); [Retried]
   is a failure the harness is about to retry with a varied seed
   (only final tries stay [Failed]); [Cancelled] means the tier was
   told to stop because a sibling already won; [Expired] that its
   wall-clock share ran out first. *)
(* The rungs of [Repair]'s escalation ladder, cheapest first.  They
   live here (not in [Repair]) so a [verdict] can carry which rung
   certified a salvaged mapping — [Repair] itself depends on this
   module for its harness fallback. *)
type rung = Untouched | Route_only | Local_replace | Ii_bump | Full_fallback

let rung_to_string = function
  | Untouched -> "untouched"
  | Route_only -> "route-only"
  | Local_replace -> "re-place"
  | Ii_bump -> "ii-bump"
  | Full_fallback -> "fallback"

type verdict = Won | Mapped_lost | Failed | Retried | Cancelled | Expired | Repaired of rung

let verdict_to_string = function
  | Won -> "won"
  | Mapped_lost -> "mapped but lost the race"
  | Failed -> "failed"
  | Retried -> "failed (retrying)"
  | Cancelled -> "cancelled"
  | Expired -> "deadline expired"
  | Repaired rung -> Printf.sprintf "repaired (%s)" (rung_to_string rung)

type tier_report = {
  tier : string; (* mapper name *)
  try_no : int; (* 0-based retry index *)
  verdict : verdict;
  took_s : float; (* wall clock this try consumed *)
  detail : string; (* the tier's own outcome note *)
  counters : (string * int) list; (* tier-attributed metrics (racing only) *)
}

let report_to_string r =
  Printf.sprintf "%s[try %d]: %s in %.2fs%s" r.tier (r.try_no + 1)
    (verdict_to_string r.verdict) r.took_s
    (if r.detail = "" then "" else " — " ^ r.detail)

type outcome = {
  mapping : Mapping.t option;
  proven_optimal : bool; (* exact method proved II optimal within budget *)
  attempts : int; (* IIs tried, restarts, ... (method-specific) *)
  elapsed_s : float;
  note : string;
  trail : tier_report list; (* per-tier-try records ([] outside the harness) *)
}

type t = {
  name : string;
  citation : string; (* representative papers from the survey *)
  scope : Taxonomy.scope;
  approach : Taxonomy.approach;
  map : Problem.t -> Rng.t -> Deadline.t -> Obs.t -> outcome;
}

let make ~name ~citation ~scope ~approach map = { name; citation; scope; approach; map }

(* A technique's raw answer.  Optimality only counts for a mapping;
   [run_d] measures [elapsed_s] and the harness fills [trail]. *)
let outcome ?(proven = false) ?(note = "") ~attempts mapping =
  let proven_optimal = proven && mapping <> None in
  { mapping; proven_optimal; attempts; elapsed_s = 0.0; note; trail = [] }

(* The candidate-II sweep every modulo mapper is built around — the
   survey's temporal formulation: step II = from, from + 1, ... and
   stop at the first mapping.  That mapping is optimal when every
   smaller candidate was refuted; [from] defaults to the MII, below
   which nothing maps, so a technique that cannot refute anything
   still proves optimality when it maps at the MII.  [max_ii] is
   tested before the deadline, so a sweep that has run out of
   candidates reports that rather than the clock. *)
type step = Mapped of Mapping.t | Refuted | Gave_up

let mapped_or_gave_up = function Some m -> Mapped m | None -> Gave_up

type stop = Found | All_refuted | Some_gave_up | Out_of_time

type sweep = { found : Mapping.t option; proven : bool; steps : int; stop : stop }

let sweep ?from ~max_ii dl (p : Problem.t) step =
  let from = match from with Some ii -> ii | None -> max 1 (Mii.mii p.dfg p.cgra) in
  let rec go ii steps gave_up =
    let stopped stop = { found = None; proven = false; steps; stop } in
    if ii > max_ii then stopped (if gave_up then Some_gave_up else All_refuted)
    else if Deadline.expired dl then stopped Out_of_time
    else
      match step ii with
      | Mapped m -> { found = Some m; proven = not gave_up; steps = steps + 1; stop = Found }
      | Refuted -> go (ii + 1) (steps + 1) gave_up
      | Gave_up -> go (ii + 1) (steps + 1) true
  in
  go from 0 false

(* The per-II restart loop.  A try that returns [Refuted] ends it
   early: the technique sees no point retrying (its schedule or solve
   failed at this II), which is not a proof for the sweep. *)
let tries n dl f =
  let rec go i =
    if i >= n || Deadline.expired dl then None
    else match f i with Mapped m -> Some m | Refuted -> None | Gave_up -> go (i + 1)
  in
  go 0

let is_invalid_note note = String.length note >= 7 && String.sub note 0 7 = "INVALID"

(* Run a mapper and validate its output; invalid results are demoted to
   failures with the violations in [note].  [elapsed_s] is measured
   here on the wall clock — the technique's self-reported value is
   never trusted.  An unmappable problem (some op with no capable,
   non-faulted PE) fails fast without entering the technique, since
   several meta-heuristics assume non-empty candidate sets. *)
let run_d (mapper : t) ?(seed = 42) ?(obs = Obs.off) ~deadline:dl (p : Problem.t) =
  let rng = Rng.create seed in
  let t0 = Deadline.now () in
  let finish o = { o with elapsed_s = Deadline.now () -. t0 } in
  if not (Problem.mappable p) then
    finish
      (outcome ~attempts:0 ~note:"unmappable: some operation has no capable, non-faulted PE" None)
  else
    Obs.span obs ~cat:"mapper" ("map:" ^ mapper.name) (fun () ->
        Obs.incr obs "mapper.runs";
        let o = mapper.map p rng dl obs in
        match o.mapping with
        | None -> finish o
        | Some m -> (
            match Obs.span obs ~cat:"mapper" "validate" (fun () -> Check.validate p m) with
            | [] -> finish o
            | violations ->
                Obs.incr obs "mapper.invalid";
                finish
                  (outcome ~attempts:o.attempts None
                     ~note:
                       (Printf.sprintf "INVALID mapping produced by %s: %s" mapper.name
                          (String.concat " | " violations)))))

let run (mapper : t) ?seed ?deadline_s ?obs (p : Problem.t) =
  run_d mapper ?seed ?obs ~deadline:(Deadline.of_seconds deadline_s) p

(* Deadline-bounded, retrying, fallback-chained mapping: the harness a
   mapping service runs instead of a bare [run].  Tier i of an n-tier
   chain receives an equal share of the remaining wall clock
   (remaining / tiers-left), so an exact front tier cannot starve the
   heuristic safety net; a failing tier is retried [retries] extra
   times with varied seeds ([Supervise]'s meaning and default); the
   note records which tier answered and why earlier tiers did not, and
   [trail] carries the same story as structured per-try records. *)
module Harness = struct
  (* Classify a non-winning try.  Validation failures keep their
     INVALID marker; otherwise blame the stop signal that was up when
     the tier returned empty-handed, defaulting to a plain failure. *)
  let losing_verdict ~deadline:dl (o : outcome) =
    match o.mapping with
    | Some _ -> Mapped_lost
    | None ->
        if is_invalid_note o.note then Failed
        else if Deadline.cancelled dl then Cancelled
        else if Deadline.expired dl then Expired
        else Failed

  let tier_event obs r =
    Obs.event obs ~cat:"harness" "harness.tier"
      [
        ("tier", Ocgra_obs.Events.Str r.tier);
        ("try", Ocgra_obs.Events.Int r.try_no);
        ("verdict", Ocgra_obs.Events.Str (verdict_to_string r.verdict));
      ]

  let run ?(seed = 42) ?deadline_s ?(retries = Ocgra_par.Supervise.default_retries)
      ?(obs = Obs.off) (chain : t list) (p : Problem.t) =
    if chain = [] then invalid_arg "Mapper.Harness.run: empty fallback chain";
    if retries < 0 then invalid_arg "Mapper.Harness.run: negative retry count";
    let dl = Deadline.of_seconds deadline_s in
    let t0 = Deadline.now () in
    let n = List.length chain in
    let total_attempts = ref 0 in
    let reports = ref [] in
    let record r =
      reports := r :: !reports;
      tier_event obs r
    in
    let trail () = List.rev !reports in
    let failures () =
      String.concat "; "
        (List.filter_map
           (fun r -> if r.verdict = Won then None else Some (report_to_string r))
           (trail ()))
    in
    let rec tiers idx = function
      | [] ->
          {
            mapping = None;
            proven_optimal = false;
            attempts = !total_attempts;
            elapsed_s = Deadline.now () -. t0;
            note = Printf.sprintf "no tier answered: %s" (failures ());
            trail = trail ();
          }
      | m :: rest ->
          let tiers_left = n - idx in
          let rec attempt try_no =
            if try_no > retries then None
            else if Deadline.expired dl && try_no > 0 then None
            else begin
              (* equal share of what is left, re-measured per try.  The
                 0.05 s floor deliberately outlives an already-expired
                 parent clock (each tier gets one graced first try), so
                 only the parent's *cancellation hook* is carried over,
                 not its expiry. *)
              let sub =
                match Deadline.remaining_s dl with
                | None -> dl
                | Some r ->
                    Deadline.with_cancel
                      (Deadline.after ~seconds:(max 0.05 (r /. float_of_int tiers_left)))
                      (fun () -> Deadline.cancelled dl)
              in
              let t1 = Deadline.now () in
              let o =
                Obs.span obs ~cat:"harness"
                  (Printf.sprintf "tier:%s#%d" m.name (try_no + 1))
                  (fun () -> run_d m ~seed:(seed + (try_no * 7919)) ~obs ~deadline:sub p)
              in
              let took_s = Deadline.now () -. t1 in
              total_attempts := !total_attempts + max 1 o.attempts;
              match o.mapping with
              | Some _ ->
                  record
                    {
                      tier = m.name;
                      try_no;
                      verdict = Won;
                      took_s;
                      detail = o.note;
                      counters = [];
                    };
                  Some o
              | None ->
                  (* a try the loop is about to rerun is [Retried], so
                     the trail distinguishes "gave up" from "kept
                     going"; the retry condition mirrors the guards at
                     the top of [attempt] *)
                  let will_retry = try_no < retries && not (Deadline.expired dl) in
                  let verdict =
                    if will_retry then begin
                      Obs.incr obs "harness.retries";
                      Retried
                    end
                    else losing_verdict ~deadline:sub o
                  in
                  record
                    { tier = m.name; try_no; verdict; took_s; detail = o.note; counters = [] };
                  attempt (try_no + 1)
            end
          in
          (match attempt 0 with
          | Some o ->
              let earlier = failures () in
              {
                o with
                attempts = !total_attempts;
                elapsed_s = Deadline.now () -. t0;
                note =
                  Printf.sprintf "answered by tier %d/%d (%s)%s%s" (idx + 1) n m.name
                    (if o.note = "" then "" else ": " ^ o.note)
                    (if earlier = "" then "" else " | earlier tiers: " ^ earlier);
                trail = trail ();
              }
          | None -> tiers (idx + 1) rest)
    in
    tiers 0 chain

  (* Portfolio racing: every tier starts at once with the *whole*
     budget instead of a 1/tiers-left share, and the first validated
     success cancels the rest.  The cancellation flag is composed into
     the shared deadline with [Deadline.with_cancel], so it reaches
     every engine through the [should_stop] checkpoints they already
     poll — losers return their best partial answer rather than being
     killed, which is what lets the outcome carry a full loser trail.
     Each tier maps into a forked metrics sink, so its counters are
     attributed in its [tier_report] and then folded back into the
     caller's.  Exact and heuristic mappers have wildly different
     latency profiles per kernel (Walter et al.), so the race's answer
     time is min over tiers, never worse than the sequential chain up
     to one poll interval.  On one worker (or a single tier) this
     degrades to the sequential chain with one try per tier
     ([retries = 0]). *)
  let race ?(seed = 42) ?deadline_s ?workers ?(obs = Obs.off) (chain : t list) (p : Problem.t)
      =
    if chain = [] then invalid_arg "Mapper.Harness.race: empty fallback chain";
    let n = List.length chain in
    let w = Ocgra_par.Pool.resolve workers n in
    if w <= 1 || n = 1 then run ~seed ?deadline_s ~retries:0 ~obs chain p
    else begin
      let t0 = Deadline.now () in
      let cancel = Ocgra_par.Cancel.create () in
      let dl =
        Deadline.with_cancel (Deadline.of_seconds deadline_s) (Ocgra_par.Cancel.hook cancel)
      in
      let tiers = Array.of_list chain in
      let forks = Array.map (fun _ -> Obs.fork obs) tiers in
      let thunks =
        Array.mapi
          (fun i m () ->
            let t1 = Deadline.now () in
            let o =
              Obs.span forks.(i) ~cat:"harness"
                (Printf.sprintf "tier:%s#1" m.name)
                (fun () -> run_d m ~seed ~obs:forks.(i) ~deadline:dl p)
            in
            (o, Deadline.now () -. t1))
          tiers
      in
      let results, winner =
        Ocgra_par.Race.run ~workers:w ~obs ~cancel
          ~accept:(fun (o, _) -> o.mapping <> None)
          thunks
      in
      Array.iter (fun f -> Obs.absorb ~into:obs f) forks;
      let outcomes = Array.map fst results in
      let attempts = Array.fold_left (fun acc o -> acc + max 1 o.attempts) 0 outcomes in
      let elapsed_s = Deadline.now () -. t0 in
      let report i =
        let o, took_s = results.(i) in
        {
          tier = tiers.(i).name;
          try_no = 0;
          verdict = (if winner = Some i then Won else losing_verdict ~deadline:dl o);
          took_s;
          detail = o.note;
          counters = Ocgra_obs.Metrics.dump (Obs.metrics forks.(i));
        }
      in
      let trail = List.init n report in
      (* emitted post-hoc in tier order, not from inside the racing
         domains, so the combined event log stays deterministic *)
      List.iter (tier_event obs) trail;
      let losers i =
        String.concat "; "
          (List.map report_to_string (List.filteri (fun j _ -> j <> i) trail))
      in
      match winner with
      | Some i ->
          let o = outcomes.(i) in
          {
            o with
            attempts;
            elapsed_s;
            note =
              Printf.sprintf "race won by tier %d/%d (%s)%s | %s" (i + 1) n tiers.(i).name
                (if o.note = "" then "" else ": " ^ o.note)
                (losers i);
            trail;
          }
      | None ->
          {
            mapping = None;
            proven_optimal = false;
            attempts;
            elapsed_s;
            note =
              Printf.sprintf "no tier won the race: %s"
                (String.concat "; " (List.map report_to_string trail));
            trail;
          }
    end
end
