(** Regenerate the paper's Fig. 4: publications per year with the
    technique-era annotations. *)

val render : unit -> string
