(* The mapper registry: one implemented representative per cell of the
   survey's Table I.  The bench iterates this list to regenerate the
   empirical companion of the table, one [table1_cell] per (mapper,
   kernel) pair. *)

open Ocgra_core

let all : Mapper.t list =
  [
    (* spatial *)
    Heuristic.greedy_spatial_mapper;
    Graph_drawing.mapper;
    Sa_spatial.mapper;
    Ga_spatial.mapper;
    Ilp_mappers.spatial;
    (* temporal *)
    Heuristic.modulo_mapper;
    Edge_centric.mapper;
    Sa_temporal.mapper;
    Ilp_mappers.temporal;
    Bb_temporal.mapper;
    Cp_temporal.mapper;
    Sat_temporal.mapper;
    Smt_temporal.mapper;
    (* binding-only (on a list schedule) *)
    Iso_binding.mapper;
    Schedule_bind.clique_binding;
    Schedule_bind.qea_binding;
    (* scheduling-only *)
    Schedule_bind.list_scheduling;
    Ilp_mappers.schedule;
  ]

(* Extra mappers that are findable by name but not part of the Table I
   bench set — the plain constructive fallback tier used by the
   Harness, and the cold-per-II SAT baseline: the CLI counterpart of
   "sat" that smoke.sh compares it with (the incremental-sweep bench
   calls [Sat_temporal.map ~incremental:false] directly instead). *)
let extras : Mapper.t list = [ Heuristic.constructive_mapper; Sat_temporal.mapper_cold ]

let find name =
  match List.find_opt (fun (m : Mapper.t) -> m.name = name) (all @ extras) with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Registry.find: unknown mapper %s" name)

(* Parse a comma-separated fallback chain spec, e.g.
   "sat,modulo-greedy,constructive".  An empty chain is refused here,
   since every consumer needs at least one tier. *)
let chain_of_spec spec =
  String.split_on_char ',' spec
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")
  |> List.map find
  |> function
  | [] -> invalid_arg (Printf.sprintf "Registry.chain_of_spec: no mapper in %S" spec)
  | chain -> chain

type cell = {
  ii : int option;
  proven_optimal : bool;
  attempts : int;
  counters : (string * int) list;
}

let table1_problem (mapper : Mapper.t) (k : Ocgra_workloads.Kernels.t) =
  if mapper.scope = Taxonomy.Spatial_mapping then
    let cgra = Ocgra_arch.Cgra.uniform ~topology:Ocgra_arch.Topology.Diagonal ~rows:4 ~cols:4 () in
    Problem.spatial ~init:k.init ~dfg:k.dfg ~cgra ()
  else
    Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:(Ocgra_arch.Cgra.uniform ~rows:4 ~cols:4 ())
      ~max_ii:12 ()

(* A private metrics sink per cell: the counters attribute to exactly
   this (mapper, kernel) pair even when cells run on several worker
   domains at once. *)
let table1_cell mapper k =
  let metrics = Ocgra_obs.Metrics.create () in
  let obs = Ocgra_obs.Ctx.v ~trace:Ocgra_obs.Trace.off ~metrics () in
  let o = Mapper.run mapper ~seed:7 ~obs (table1_problem mapper k) in
  {
    ii = Option.map (fun (m : Mapping.t) -> m.ii) o.mapping;
    proven_optimal = o.proven_optimal;
    attempts = o.attempts;
    counters = Ocgra_obs.Metrics.dump metrics;
  }

let cell_json c =
  let module Json = Ocgra_obs.Json in
  [
    ("ii", match c.ii with Some ii -> Json.int ii | None -> Json.Null);
    ("proven_optimal", Json.Bool c.proven_optimal);
    ("attempts", Json.int c.attempts);
    ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) c.counters));
  ]
