(* Fault-tolerant execution over the Domain pool.

   [Pool.run] is deliberately strict: one raising task re-raises after
   the drain, which is right for callers whose result is meaningless
   without every task.  Long campaigns are the opposite — hours of
   Monte-Carlo or bench work must not die because one trial hit a bug,
   a transient allocation failure, or an injected chaos fault.  This
   layer gives every task a per-outcome verdict instead of
   raise-through:

   - a raising try is rerun at once, up to [retries] extra times (the
     work is in-process CPU work, so waiting between tries buys
     nothing);
   - a task that exhausts every try lands on the quarantine list and
     degrades the result set ([Failed] in its slot) instead of
     aborting the run.

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

let outcome_to_string = function
  | Ok _ -> "ok"
  | Failed e -> "failed: " ^ Printexc.to_string e

let default_retries = 1

type 'a summary = {
  outcomes : 'a outcome array;
  tries : int array;
  retried : int;
  quarantined : int list;
}

let run ?workers ?(obs = Ocgra_obs.Ctx.off) ?(retries = default_retries)
    ?(chaos = Chaos.none) (tasks : (unit -> 'a) array) =
  if retries < 0 then invalid_arg "Supervise.run: negative retry count";
  let n = Array.length tasks in
  let tries = Array.make n 0 in
  let traced = Ocgra_obs.Ctx.enabled obs in
  let thunk i () =
    let attempt try_no () =
      try
        Chaos.perturb ~obs chaos ~task:i ~try_no;
        Ok (tasks.(i) ())
      with e -> Failed e
    in
    let rec go try_no =
      tries.(i) <- try_no + 1;
      let result =
        if traced && try_no > 0 then
          Ocgra_obs.Ctx.span obs ~cat:"supervise"
            (Printf.sprintf "supervise:retry-%d#%d" i try_no)
            (attempt try_no)
        else attempt try_no ()
      in
      match result with
      | Failed _ when try_no < retries ->
          Ocgra_obs.Ctx.incr obs "supervise.retries";
          go (try_no + 1)
      | Ok _ | Failed _ -> result
    in
    go 0
  in
  let outcomes = Pool.run ?workers ~obs (Array.init n thunk) in
  let retried = Array.fold_left (fun acc t -> acc + (t - 1)) 0 tries in
  let quarantined =
    List.filter
      (fun i -> match outcomes.(i) with Failed _ -> true | Ok _ -> false)
      (List.init n Fun.id)
  in
  (* anomalies only, emitted post-hoc in task-index order from the
     outcome array — never from inside the racing domains — so the
     event log is independent of worker count and interleaving *)
  Array.iteri
    (fun i o ->
      if tries.(i) > 1 || (match o with Ok _ -> false | Failed _ -> true) then
        Ocgra_obs.Ctx.event obs ~cat:"supervise" "supervise.task"
          [
            ("task", Ocgra_obs.Events.Int i);
            ("tries", Ocgra_obs.Events.Int tries.(i));
            ("outcome", Ocgra_obs.Events.Str (outcome_to_string o));
          ])
    outcomes;
  let failed = List.length quarantined in
  Ocgra_obs.Ctx.add obs "supervise.ok" (n - failed);
  Ocgra_obs.Ctx.add obs "supervise.failed" failed;
  Ocgra_obs.Ctx.add obs "supervise.quarantined" failed;
  { outcomes; tries; retried; quarantined }
