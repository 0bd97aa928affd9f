(** The mapper registry: one implemented representative per cell of the
    survey's Table I; the bench iterates this list to regenerate the
    empirical companion of the table. *)

(** All 18 mappers, in Table I order (spatial, temporal, binding-only,
    scheduling-only). *)
val all : Ocgra_core.Mapper.t list

(** Mappers findable by name but outside the Table I bench set (the
    plain constructive fallback tier). *)
val extras : Ocgra_core.Mapper.t list

(** Raises [Invalid_argument] on unknown names.  Searches [all] then
    [extras]. *)
val find : string -> Ocgra_core.Mapper.t

(** Parse a comma-separated fallback chain spec
    (e.g. ["sat,modulo-greedy,constructive"]) into mappers; raises
    [Invalid_argument] on unknown names and on a spec naming none. *)
val chain_of_spec : string -> Ocgra_core.Mapper.t list
