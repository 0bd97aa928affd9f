(* Spatial mapping by simulated annealing over placements — the
   SPR/SNAFU/DSAGEN school ([49], [33], [32]): anneal a node->PE vector
   on collision + wirelength cost, then pipeline and route strictly. *)

open Ocgra_core

let mapper =
  Mapper.make ~name:"sa-spatial" ~citation:"Friedman et al. SPR [49]; SNAFU [33]; DSAGEN [32]"
    ~scope:Taxonomy.Spatial_mapping ~approach:(Taxonomy.Meta_local "SA")
    (fun p rng dl obs ->
      let config = { Ocgra_meta.Sa.default_config with max_steps = 20_000 } in
      let hop_table = Ocgra_arch.Cgra.hop_table p.cgra in
      let attempts = ref 0 in
      (* up to ten annealing runs of 20000 steps, each followed by a
         strict extraction *)
      let m =
        Mapper.tries 10 dl (fun _ ->
            incr attempts;
            let init = Spatial_common.random_genome p rng in
            let best, _cost, (stats : Ocgra_meta.Sa.stats) =
              Ocgra_obs.Ctx.span obs ~cat:"sa" "sa-spatial:anneal" (fun () ->
                  Ocgra_meta.Sa.run ~config rng ~init
                    ~neighbour:(fun rng g -> Spatial_common.mutate p rng g)
                    ~cost:(fun g -> float_of_int (Spatial_common.genome_cost p hop_table g)))
            in
            Ocgra_obs.Ctx.add obs "sa.steps" stats.steps;
            Ocgra_obs.Ctx.add obs "sa.accepted" stats.accepted;
            Mapper.mapped_or_gave_up (Spatial_common.extract p best))
      in
      Mapper.outcome ~attempts:!attempts m ~note:"annealed placement + strict pipeline routing")
