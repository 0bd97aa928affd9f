(** Seeded chaos injection: synthetic task failures for exercising the
    {!Supervise} layer.

    The fault pattern is a pure function of (configuration, task
    index, try number) — never of scheduling or worker count — so a
    test can assert exact invariants: a seeded 10% failure rate plus
    bounded retries must reproduce the chaos-free result, and the
    whole thing must be bit-identical from 1 to N domains. *)

type t

(** A try the injector decided to kill (task, try_no). *)
exception Injected_failure of int * int

(** No injection; {!perturb} is a single branch. *)
val none : t

(** [make ~seed ()] kills each (task, try) with probability
    [fail_rate] (default 0).  Raises [Invalid_argument] on a rate
    outside [0, 1]. *)
val make : ?fail_rate:float -> seed:int -> unit -> t

(** [perturb t ~task ~try_no] raises {!Injected_failure} if this
    (task, try) was drawn to fail.  A live [obs] tallies
    [chaos.failures]. *)
val perturb : ?obs:Ocgra_obs.Ctx.t -> t -> task:int -> try_no:int -> unit
