(** Cooperative sleeping for the supervision layer, on the monotonic
    clock [Ocgra_obs.Trace.now]. *)

(** [sleep_unless ~until s] sleeps [s] seconds in sub-millisecond
    slices, returning early (with [false]) as soon as [until ()] is
    true; [true] means the full duration elapsed. *)
val sleep_unless : until:(unit -> bool) -> float -> bool
