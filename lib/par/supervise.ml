(* Fault-tolerant execution over the Domain pool.

   [Pool.run] is deliberately strict: one raising task re-raises after
   the drain, which is right for callers whose result is meaningless
   without every task.  Long campaigns are the opposite — hours of
   Monte-Carlo or bench work must not die because one trial hit a bug,
   a transient allocation failure, or an injected chaos fault.  This
   layer gives every task a per-outcome verdict instead of
   raise-through:

   - a raising try is retried up to [policy.retries] extra times, with
     seeded exponential backoff + jitter between tries (the jitter
     stream is keyed on (policy.seed, task), so it never depends on
     scheduling);
   - each try runs under an optional watchdog: the task's [stop] hook
     turns true when the per-try budget [policy.timeout_s] runs out or
     the shared [cancel] flag fires, and a try that *raises* after its
     watchdog expired is classified [Timed_out] (blame the stop signal
     that was up — the same attribution rule the mapper harness uses);
   - a task that exhausts every try lands on the quarantine list and
     degrades the result set ([Failed]/[Timed_out] in its slot) instead
     of aborting the run;
   - a fired [cancel] stops everything promptly — including mid-backoff
     — and the not-yet-finished tasks report [Cancelled].

   Determinism: given deterministic tasks and a seeded [chaos], the
   outcome array, per-task try counts and quarantine list are all pure
   functions of the inputs — worker count and interleaving never show
   through, which CI asserts the same way it does for campaign
   reports.  Thunks handed to the pool never raise (every exception is
   caught and classified here), so the strict pool policy below is
   never triggered. *)

type 'a outcome =
  | Ok of 'a
  | Failed of exn (* exhausted retries; the last exception *)
  | Timed_out (* last try raised after its watchdog expired *)
  | Cancelled (* the shared cancel flag fired first *)

let outcome_to_string = function
  | Ok _ -> "ok"
  | Failed e -> "failed: " ^ Printexc.to_string e
  | Timed_out -> "timed out"
  | Cancelled -> "cancelled"

type policy = {
  retries : int;
  backoff_s : float;
  backoff_factor : float;
  jitter : float;
  timeout_s : float option;
  seed : int;
}

let default_policy =
  {
    retries = 1;
    backoff_s = 0.002;
    backoff_factor = 2.0;
    jitter = 0.25;
    timeout_s = None;
    seed = 0x5AFE;
  }

type 'a summary = {
  outcomes : 'a outcome array;
  tries : int array;
  retried : int;
  quarantined : int list;
}

let ok_results s =
  Array.to_list s.outcomes
  |> List.filter_map (function Ok v -> Some v | Failed _ | Timed_out | Cancelled -> None)

(* Backoff before retry [try_no + 1]: exponential in the try index,
   jittered by a per-task stream so a storm of simultaneous failures
   does not retry in lockstep. *)
let backoff_duration policy jrng try_no =
  let base = policy.backoff_s *. (policy.backoff_factor ** float_of_int try_no) in
  let spread = 1.0 +. (policy.jitter *. ((2.0 *. Ocgra_util.Rng.float jrng 1.0) -. 1.0)) in
  Float.max 0.0 (base *. spread)

let run ?workers ?(obs = Ocgra_obs.Ctx.off) ?(policy = default_policy) ?cancel
    ?(chaos = Chaos.none) (tasks : ((unit -> bool) -> 'a) array) =
  if policy.retries < 0 then invalid_arg "Supervise.run: negative retry count";
  let n = Array.length tasks in
  let cancelled () = match cancel with None -> false | Some c -> Cancel.is_set c in
  let max_tries = 1 + policy.retries in
  let tries = Array.make n 0 in
  let traced = Ocgra_obs.Ctx.enabled obs in
  let thunk i () =
    let task = tasks.(i) in
    let jrng = Ocgra_util.Rng.create (policy.seed lxor (i * 0x9E3779B9) lxor 0x5C13) in
    let rec go try_no =
      if cancelled () then Cancelled
      else begin
        tries.(i) <- try_no + 1;
        let watchdog =
          match policy.timeout_s with None -> None | Some s -> Some (Ocgra_obs.Trace.now () +. s)
        in
        let stop () =
          cancelled ()
          || (match watchdog with None -> false | Some w -> Ocgra_obs.Trace.now () > w)
        in
        let attempt () =
          try
            Chaos.perturb ~obs chaos ~stop ~task:i ~try_no;
            `Returned (task stop)
          with e -> `Raised e
        in
        let result =
          if traced && try_no > 0 then
            Ocgra_obs.Ctx.span obs ~cat:"supervise"
              (Printf.sprintf "supervise:retry-%d#%d" i try_no)
              attempt
          else attempt ()
        in
        match result with
        | `Returned v -> Ok v
        | `Raised e ->
            let timed_out =
              match watchdog with None -> false | Some w -> Ocgra_obs.Trace.now () > w
            in
            if cancelled () then Cancelled
            else if try_no + 1 < max_tries then begin
              Ocgra_obs.Ctx.incr obs "supervise.retries";
              let d = backoff_duration policy jrng try_no in
              (* the duration is a pure function of (seed, task, try),
                 so the histogram stays deterministic across worker
                 counts even though it is recorded mid-flight *)
              Ocgra_obs.Ctx.observe obs "supervise.backoff_us" (int_of_float (d *. 1e6));
              if Clock.sleep_unless ~until:cancelled d
              then go (try_no + 1)
              else Cancelled (* cancellation interrupted the backoff sleep *)
            end
            else if timed_out then Timed_out
            else Failed e
      end
    in
    go 0
  in
  let outcomes = Pool.run ?workers ~obs (Array.init n thunk) in
  let retried =
    Array.fold_left (fun acc t -> acc + max 0 (t - 1)) 0 tries
  in
  let quarantined =
    List.rev
      (Array.to_list outcomes
      |> List.mapi (fun i o -> (i, o))
      |> List.fold_left
           (fun acc (i, o) ->
             match o with Failed _ | Timed_out -> i :: acc | Ok _ | Cancelled -> acc)
           [])
  in
  (* anomalies only, emitted post-hoc in task-index order from the
     outcome array — never from inside the racing domains — so the
     event log is independent of worker count and interleaving *)
  Array.iteri
    (fun i o ->
      if tries.(i) > 1 || (match o with Ok _ -> false | _ -> true) then
        Ocgra_obs.Ctx.event obs ~cat:"supervise" "supervise.task"
          [
            ("task", Ocgra_obs.Events.Int i);
            ("tries", Ocgra_obs.Events.Int tries.(i));
            ("outcome", Ocgra_obs.Events.Str (outcome_to_string o));
          ])
    outcomes;
  let tally f = Array.fold_left (fun acc o -> if f o then acc + 1 else acc) 0 outcomes in
  Ocgra_obs.Ctx.add obs "supervise.ok" (tally (function Ok _ -> true | _ -> false));
  Ocgra_obs.Ctx.add obs "supervise.failed" (tally (function Failed _ -> true | _ -> false));
  Ocgra_obs.Ctx.add obs "supervise.timed_out" (tally (function Timed_out -> true | _ -> false));
  Ocgra_obs.Ctx.add obs "supervise.cancelled" (tally (function Cancelled -> true | _ -> false));
  Ocgra_obs.Ctx.add obs "supervise.quarantined" (List.length quarantined);
  { outcomes; tries; retried; quarantined }
