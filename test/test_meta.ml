(* Meta-heuristic engine tests: convergence on easy landscapes and
   interface contracts. *)

module Sa = Ocgra_meta.Sa
module Ga = Ocgra_meta.Ga
module Qea = Ocgra_meta.Qea
module Rng = Ocgra_util.Rng

let checkb = Alcotest.check Alcotest.bool

(* onemax-like target: minimize the Hamming distance to a hidden
   pattern over int arrays *)
let hidden = Array.init 24 (fun i -> i mod 2)

let distance genome =
  let d = ref 0 in
  Array.iteri (fun i g -> if g <> hidden.(i) then incr d) genome;
  !d

let test_sa_converges () =
  let rng = Rng.create 1 in
  let init = Array.make 24 0 in
  let neighbour rng g =
    let g' = Array.copy g in
    let i = Rng.int rng 24 in
    g'.(i) <- 1 - g'.(i);
    g'
  in
  let best, cost, stats =
    Sa.run rng ~init ~neighbour ~cost:(fun g -> float_of_int (distance g))
  in
  checkb "found optimum" true (cost = 0.0 && distance best = 0);
  checkb "steps counted" true (stats.Sa.steps > 0)

let test_sa_respects_max_steps () =
  let rng = Rng.create 2 in
  let config = { Sa.default_config with max_steps = 50 } in
  let _, _, stats =
    Sa.run ~config rng ~init:0 ~neighbour:(fun rng x -> x + Rng.int_in rng (-1) 1)
      ~cost:(fun x -> float_of_int (abs (x - 1000) + 1))
  in
  checkb "bounded" true (stats.Sa.steps <= 50)

let test_ga_converges () =
  let rng = Rng.create 3 in
  let init rng = Array.init 24 (fun _ -> Rng.int rng 2) in
  let crossover rng a b =
    let cut = Rng.int rng 24 in
    Array.init 24 (fun i -> if i < cut then a.(i) else b.(i))
  in
  let mutate rng g =
    let g' = Array.copy g in
    let i = Rng.int rng 24 in
    g'.(i) <- 1 - g'.(i);
    g'
  in
  let config = { Ga.default_config with generations = 120; population = 40 } in
  let best, fit, _stats =
    Ga.run ~config ~stop_at:0.0 rng ~init ~crossover ~mutate
      ~fitness:(fun g -> -.float_of_int (distance g))
  in
  checkb "near optimum" true (fit >= -2.0);
  checkb "genome close" true (distance best <= 2)

let test_ga_elitism_monotone () =
  (* with elitism the best fitness never decreases across generations;
     we approximate by checking the final best beats a random start *)
  let rng = Rng.create 4 in
  let init rng = Array.init 24 (fun _ -> Rng.int rng 2) in
  let baseline = distance (init rng) in
  let _, fit, _ =
    Ga.run rng ~init
      ~crossover:(fun _ a _ -> a)
      ~mutate:(fun rng g ->
        let g' = Array.copy g in
        let i = Rng.int rng 24 in
        g'.(i) <- 1 - g'.(i);
        g')
      ~fitness:(fun g -> -.float_of_int (distance g))
  in
  checkb "improved over random" true (-.fit <= float_of_int baseline)

let test_qea_converges () =
  let rng = Rng.create 5 in
  let target = Array.init 20 (fun i -> i mod 3 = 0) in
  let fitness genome =
    let score = ref 0 in
    Array.iteri (fun i b -> if b = target.(i) then incr score) genome;
    float_of_int !score
  in
  let config = { Qea.population = 20; generations = 150; rotation = 0.05 } in
  let best, fit, evals = Qea.run ~config ~stop_at:20.0 rng ~n_bits:20 ~fitness in
  checkb "high fitness" true (fit >= 18.0);
  checkb "evaluations counted" true (evals > 0);
  checkb "genome length" true (Array.length best = 20)

let () =
  Alcotest.run "meta"
    [
      ( "sa",
        [
          Alcotest.test_case "converges on onemax" `Quick test_sa_converges;
          Alcotest.test_case "max steps respected" `Quick test_sa_respects_max_steps;
        ] );
      ( "ga",
        [
          Alcotest.test_case "converges on onemax" `Quick test_ga_converges;
          Alcotest.test_case "improves over random" `Quick test_ga_elitism_monotone;
        ] );
      ("qea", [ Alcotest.test_case "converges" `Quick test_qea_converges ]);
    ]
