(* GenMap-style spatial mapping by genetic algorithm ([19] Kojima et
   al.): placement genomes evolve under collision + wirelength fitness,
   elitist generational replacement, then strict extraction. *)

open Ocgra_core

let mapper =
  Mapper.make ~name:"genmap-ga" ~citation:"Kojima et al. GenMap [19]"
    ~scope:Taxonomy.Spatial_mapping ~approach:(Taxonomy.Meta_population "GA")
    (fun p rng dl obs ->
      let hop_table = Ocgra_arch.Cgra.hop_table p.cgra in
      let attempts = ref 0 in
      (* up to ten evolution runs, each followed by a strict extraction *)
      let m =
        Mapper.tries 10 dl (fun _ ->
            incr attempts;
            let best, _fit, (stats : Ocgra_meta.Ga.stats) =
              Ocgra_obs.Ctx.span obs ~cat:"ga" "genmap:evolve" (fun () ->
                  Ocgra_meta.Ga.run ~config:Ocgra_meta.Ga.default_config rng
                    ~init:(fun rng -> Spatial_common.random_genome p rng)
                    ~crossover:Spatial_common.crossover
                    ~mutate:(fun rng g -> Spatial_common.mutate p rng g)
                    ~fitness:(fun g -> -.float_of_int (Spatial_common.genome_cost p hop_table g)))
            in
            Ocgra_obs.Ctx.add obs "ga.evaluations" stats.evaluations;
            Mapper.mapped_or_gave_up (Spatial_common.extract p best))
      in
      Mapper.outcome ~attempts:!attempts m ~note:"evolved placement + strict pipeline routing")
