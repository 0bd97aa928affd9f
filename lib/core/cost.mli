(** Quality metrics of a valid mapping: II first (the field's figure of
    merit), then schedule length, routing volume and utilization. *)

type t = {
  ii : int;
  schedule_length : int;
  route_hops : int;
  hold_cycles : int;
  fu_utilization : float;  (** used FU slots / (PE count * II) *)
  ops : int;
}

val of_mapping : Problem.t -> Mapping.t -> t

val to_string : t -> string
