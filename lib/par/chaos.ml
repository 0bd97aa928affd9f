(* Seeded chaos injection for the supervised execution layer.

   A [t] describes a synthetic fault load: with probability
   [fail_rate] a try raises [Injected_failure] instead of running.
   Every draw is keyed on (seed, task, try_no) through its own
   splitmix stream, so the injected fault pattern is a pure function
   of the configuration — independent of worker count, scheduling, or
   how many other tasks run — which is what lets tests assert that a
   chaos-laden campaign produces the *same* report as a chaos-free one
   once retries mask the injections. *)

type t = { seed : int; fail_rate : float }

exception Injected_failure of int * int (* task, try_no *)

let none = { seed = 0; fail_rate = 0.0 }

let make ?(fail_rate = 0.0) ~seed () =
  if fail_rate < 0.0 || fail_rate > 1.0 then invalid_arg "Chaos.make: fail_rate outside [0, 1]";
  { seed; fail_rate }

(* One private stream per (task, try): draws never cross domains and
   never depend on the order other tasks run in. *)
let stream t ~task ~try_no =
  Ocgra_util.Rng.create (t.seed lxor (task * 0x9E3779B9) lxor (try_no * 0x85EB_CA6B) lxor 0xC4A05)

let perturb ?(obs = Ocgra_obs.Ctx.off) t ~task ~try_no =
  if t.fail_rate > 0.0 then begin
    let r = stream t ~task ~try_no in
    (* the stream's first draw is skipped (it once decided an injected
       delay), so a given seed kills the same tries it always has *)
    ignore (Ocgra_util.Rng.float r 1.0);
    if Ocgra_util.Rng.float r 1.0 < t.fail_rate then begin
      Ocgra_obs.Ctx.incr obs "chaos.failures";
      raise (Injected_failure (task, try_no))
    end
  end
