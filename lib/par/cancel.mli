(** A cancellation flag shared between domains.

    One writer (whoever decides the work is moot — a race winner, a
    shutting-down server) sets it; any number of engines poll it
    through the [hook] closure, which has the same [unit -> bool] shape
    as [Ocgra_core.Deadline.should_stop] so the two compose into one
    stop signal.  Setting is idempotent and the flag never resets:
    cancellation only ever travels from [false] to [true]. *)

type t

val create : unit -> t

(** Request cancellation (idempotent, safe from any domain). *)
val set : t -> unit

(** [hook t] is a poll closure for engines: true once [t] is set. *)
val hook : t -> unit -> bool
