(* Cooperative sleep: naps in small slices so an [until] hook (a
   cancellation flag, a watchdog) is observed within ~a millisecond
   instead of after the whole duration.  Returns [true] when the sleep
   ran its full course, [false] when [until] cut it short.  Time is
   read from [Ocgra_obs.Trace.now], the tree's one monotonic clock. *)
let sleep_unless ~until seconds =
  let t0 = Ocgra_obs.Trace.now () in
  let rec nap () =
    if until () then false
    else
      let left = seconds -. (Ocgra_obs.Trace.now () -. t0) in
      if left <= 0.0 then true
      else begin
        Unix.sleepf (Float.min 0.0005 left);
        nap ()
      end
  in
  nap ()
