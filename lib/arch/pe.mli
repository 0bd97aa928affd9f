(** Processing element (reconfigurable cell) description: functional
    classes, register-file size, immediate field. *)

type t = {
  classes : Ocgra_dfg.Op.func_class list;
  rf_size : int;  (** local register-file entries usable for routing in time *)
  has_const : bool;  (** immediate field in the configuration word *)
}

val make : ?rf_size:int -> ?has_const:bool -> Ocgra_dfg.Op.func_class list -> t

(** Routing ([F_route]) is implied by every cell. *)
val has_class : t -> Ocgra_dfg.Op.func_class -> bool

(** Can this cell execute the operation? *)
val supports : t -> Ocgra_dfg.Op.t -> bool

val to_string : t -> string
