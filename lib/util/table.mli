(** Plain-text table rendering shared by the bench and reports. *)

type align = Left | Right | Center

(** [pad align width s] pads [s] to [width] characters. *)
val pad : align -> int -> string -> string

(** [render ~headers rows] lays the table out with per-column widths,
    headers centred and cells left-aligned. Raises [Invalid_argument]
    on ragged rows. *)
val render : headers:string array -> string array list -> string

(** [render] straight to stdout. *)
val print : headers:string array -> string array list -> unit
