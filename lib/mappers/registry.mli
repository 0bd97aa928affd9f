(** The mapper registry: one implemented representative per cell of the
    survey's Table I; the bench iterates this list to regenerate the
    empirical companion of the table, one {!table1_cell} per (mapper,
    kernel) pair. *)

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

(** {2 The Table I empirical companion}

    [bench t1b-only] writes one {!cell} per pair of {!all} and the small
    kernel suite to [BENCH_PR6.json]; the test suite requires every
    non-[ilp-*] cell to equal the committed one.  Both run this
    definition. *)

type cell = {
  ii : int option;  (** [None] when the mapping failed *)
  proven_optimal : bool;
  attempts : int;
  counters : (string * int) list;
      (** the cell's engine counters, in {!Ocgra_obs.Metrics.dump} order *)
}

(** [table1_cell m k] runs [Mapper.run m ~seed:7] on the problem the
    cell poses — a diagonal-topology 4×4 array for spatial mappers,
    otherwise a 4×4 mesh swept up to II 12 — with a private metrics
    sink (so cells can run on parallel domains). *)
val table1_cell : Ocgra_core.Mapper.t -> Ocgra_workloads.Kernels.t -> cell

(** The cell's [BENCH_PR6.json] members: [ii], [proven_optimal],
    [attempts] and [counters], in that order. *)
val cell_json : cell -> (string * Ocgra_obs.Json.t) list
