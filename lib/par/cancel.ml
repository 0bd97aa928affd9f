(* One-way cancellation flag: a single [Atomic.t bool] that only ever
   goes from false to true.  Engines poll it through [hook], which has
   the exact shape of the [should_stop] closures already threaded into
   every solver, so cancellation rides the same checkpoints wall-clock
   deadlines do. *)

type t = bool Atomic.t

let create () = Atomic.make false
let set t = Atomic.set t true
let hook t () = Atomic.get t
