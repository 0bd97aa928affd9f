(* The named heuristic mappers built on the constructive engine:

   - [modulo_mapper]: iterative modulo scheduling with integrated
     greedy placement and routing (temporal x heuristics cell; the
     lineage of [12], [36], [61] and the deterministic core of DRESC).
   - [greedy_spatial_mapper]: the same engine pinned at II = 1
     (spatial x heuristics; straight-forward mapping).
   - [constructive_mapper]: the bare engine accepting either problem
     kind, with a deep restart budget — the last-resort tier of a
     fallback chain (not part of the Table I registry). *)

open Ocgra_core

let modulo_mapper =
  Mapper.make ~name:"modulo-greedy"
    ~citation:"Bondalapati & Prasanna [12]; Mei et al. [61]; Zhao et al. [36]"
    ~scope:Taxonomy.Temporal_mapping ~approach:Taxonomy.Heuristic
    (fun p rng dl obs ->
      match p.kind with
      | Problem.Spatial ->
          Mapper.outcome ~attempts:0 ~note:"temporal mapper on spatial problem" None
      | Problem.Temporal _ ->
          let m, attempts, proven = Constructive.map ~restarts:16 ~deadline:dl ~obs p rng in
          Mapper.outcome ~proven ~attempts m
            ~note:"iterative modulo scheduling + greedy place-and-route")

let greedy_spatial_mapper =
  Mapper.make ~name:"greedy-spatial" ~citation:"Yoon et al. [23] (baseline); ChordMap [31]"
    ~scope:Taxonomy.Spatial_mapping ~approach:Taxonomy.Heuristic
    (fun p rng dl obs ->
      let m, attempts, _ = Constructive.map ~restarts:24 ~deadline:dl ~obs p rng in
      Mapper.outcome ~attempts m ~note:"topological greedy placement + strict routing at II = 1")

let constructive_mapper =
  Mapper.make ~name:"constructive" ~citation:"iterative modulo scheduling lineage [12]"
    ~scope:Taxonomy.Temporal_mapping ~approach:Taxonomy.Heuristic
    (fun p rng dl obs ->
      let m, attempts, proven =
        Constructive.map ~restarts:32 ~time_slack:8 ~deadline:dl ~obs p rng
      in
      Mapper.outcome ~proven ~attempts m
        ~note:"constructive greedy place-and-route (fallback tier)")
