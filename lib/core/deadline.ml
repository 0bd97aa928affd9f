(* Monotonic-clock budgets and composable stop signals for mapping
   runs.

   A deadline is an absolute expiry instant (or none) plus an optional
   external cancellation hook (e.g. an [Ocgra_par.Cancel] flag set by
   the winner of a portfolio race).  Engines receive the whole thing as
   a cheap [should_stop : unit -> bool] polling hook; mappers check it
   between restarts / II iterations, so one composed signal bounds and
   cancels every tier of the stack without per-engine plumbing.  The
   clock is CLOCK_MONOTONIC ([Ocgra_obs.Trace.now]), not wall time: an
   NTP step or a suspend/resume must neither silently expire a budget
   nor extend it.  Monotonic elapsed time, not CPU time, so a stuck
   solver is bounded even when it sleeps or pages — and so budgets
   still mean "seconds of service latency" when worker domains run in
   parallel (CPU time sums across cores). *)

type t = {
  expires_at : float option; (* monotonic instant *)
  cancelled : (unit -> bool) option; (* external stop signal, ORed in *)
}

(* Seconds on the monotonic clock.  The epoch is arbitrary (boot time
   on Linux); only differences are meaningful, which is all a deadline
   or an elapsed-time measurement needs. *)
let now = Ocgra_obs.Trace.now

let none = { expires_at = None; cancelled = None }
let after ~seconds = { none with expires_at = Some (now () +. seconds) }
let of_seconds = function None -> none | Some s -> after ~seconds:s

let with_cancel t hook =
  {
    t with
    cancelled =
      (match t.cancelled with
      | None -> Some hook
      | Some g -> Some (fun () -> g () || hook ()));
  }

let sooner a b =
  {
    expires_at =
      (match (a.expires_at, b.expires_at) with
      | None, e | e, None -> e
      | Some x, Some y -> Some (min x y));
    cancelled =
      (match (a.cancelled, b.cancelled) with
      | None, c | c, None -> c
      | Some f, Some g -> Some (fun () -> f () || g ()));
  }

let cancelled t = match t.cancelled with None -> false | Some f -> f ()

let expired t =
  cancelled t || (match t.expires_at with None -> false | Some e -> now () > e)

let remaining_s t = Option.map (fun e -> max 0.0 (e -. now ())) t.expires_at
let should_stop t () = expired t
