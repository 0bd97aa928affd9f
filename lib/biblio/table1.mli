(** Regenerate the paper's Table I from the structured corpus. *)

(** The rendered table. *)
val render : unit -> string
