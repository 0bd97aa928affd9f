(** Descriptive statistics and ASCII histograms for the bench output. *)

(** Linear-interpolated median; raises [Invalid_argument] on empty
    input. *)
val median : float array -> float

(** Horizontal bar chart: one labelled row per (label, value); [width]
    is the longest bar in characters. *)
val hbar_chart : ?width:int -> (string * float) list -> string
