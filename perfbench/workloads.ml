(* The three workloads (see [all]).  Applied to a seed and an
   observability context, a workload builds its inputs from the seed
   alone -- this is the timed set-up -- and returns a closure that runs
   one pass over them; the program sees only the generated inputs.
   Each pass times request in -> certified answer out, then runs the
   correctness gate outside the timed region. *)

open Ocgra_core
module Ctx = Ocgra_obs.Ctx
module Trace = Ocgra_obs.Trace
module Rng = Ocgra_util.Rng
module Dfg = Ocgra_dfg.Dfg
module Kernels = Ocgra_workloads.Kernels
module Machine = Ocgra_sim.Machine
module Svc = Ocgra_svc.Svc
module Wire = Ocgra_svc.Wire
module Canon = Ocgra_svc.Canon

(* How an answered request was served: a cold compile (every kernel of
   the compile workloads, a miss in the service), a cache hit (exact
   or isomorphic) or a repair hit. *)
type path = Compile | Hit | Repair

type pass = {
  timed_s : float;  (** sum of the timed request-in -> answer-out segments *)
  attempted : int;
  failures : string list;  (** one line per mismatch, named *)
  answers : (path * float) list;  (** latency in seconds of each certified answer *)
  ratios : float list;  (** II / MII of each mapping the pass produced (hits replay one) *)
  fingerprint : (string * int) list;  (** exact work counts visible without tracing *)
  gate_violations : int;  (** found by the gate's Check.validate replays *)
}

let span obs name f = Ctx.span obs ~cat:"bench" name f

let timed f =
  let t0 = Trace.now () in
  let r = f () in
  (r, Trace.now () -. t0)

let ii_over_mii ii dfg cgra = float_of_int ii /. float_of_int (max 1 (Mii.mii dfg cgra))

(* ------------------------------------------------------------------ *)
(* heuristic-flow and exact-sat: Problem.temporal -> Mapper.run ->     *)
(* Contexts -> Machine.run, checked against Eval.run                   *)
(* ------------------------------------------------------------------ *)

type kernel = {
  kname : string;
  dfg : Dfg.t;
  init : int -> int;
  streams : int -> (string * int array) list;
  memory : (string * int array) list;
  outputs : string list;
  cgra : Ocgra_arch.Cgra.t;
  expect : (int * bool) option;  (** exact-sat: optimal II and proven flag *)
}

let iters = 12

let of_library ?expect cgra (k : Kernels.t) =
  {
    kname = k.Kernels.name;
    dfg = k.Kernels.dfg;
    init = k.Kernels.init;
    streams = k.Kernels.inputs;
    memory = k.Kernels.memory;
    outputs = k.Kernels.outputs;
    cgra;
    expect;
  }

let output_names dfg =
  Dfg.fold_nodes
    (fun (n : Dfg.node) acc ->
      match n.Dfg.op with Ocgra_dfg.Op.Output name -> name :: acc | _ -> acc)
    dfg []

let compile_pass mapper kernels obs () =
  let failures = ref [] and answers = ref [] and ratios = ref [] in
  let timed_s = ref 0.0 and gate_violations = ref 0 in
  let ii_sum = ref 0 and attempts = ref 0 and proven = ref 0 in
  let cycles = ref 0 and route_instances = ref 0 and words = ref 0 in
  List.iter
    (fun k ->
      let fail msg = failures := Printf.sprintf "%s: %s" k.kname msg :: !failures in
      let (p, o), compile_s =
        timed (fun () ->
            span obs "bench:compile" (fun () ->
                let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:k.cgra () in
                (p, Mapper.run mapper ~obs p)))
      in
      attempts := !attempts + o.Mapper.attempts;
      match o.Mapper.mapping with
      | None ->
          timed_s := !timed_s +. compile_s;
          fail ("no certified mapping: " ^ o.Mapper.note)
      | Some m -> (
          let run () =
            let enc =
              span obs "bench:contexts" (fun () -> Contexts.encode (Contexts.of_mapping p m))
            in
            let sim =
              span obs "bench:sim" (fun () ->
                  Machine.run ~obs p m
                    (Machine.io_of_streams ~memory:k.memory (k.streams iters))
                    ~iters)
            in
            let reference =
              span obs "bench:eval" (fun () ->
                  Ocgra_dfg.Eval.run ~init:k.init k.dfg
                    (Ocgra_dfg.Eval.env_of_streams ~memory:k.memory (k.streams iters))
                    ~iters)
            in
            (enc, sim, reference)
          in
          match timed run with
          | exception e ->
              timed_s := !timed_s +. compile_s;
              fail ("encode/simulate raised " ^ Printexc.to_string e)
          | (enc, sim, reference), verify_s ->
              timed_s := !timed_s +. compile_s +. verify_s;
              (* the gate: nothing below is timed *)
              let violations = span obs "gate:validate" (fun () -> Check.validate p m) in
              gate_violations := !gate_violations + List.length violations;
              let ok = ref (violations = []) in
              if violations <> [] then fail ("validator: " ^ String.concat " | " violations);
              if Array.length enc <> m.Mapping.ii then begin
                ok := false;
                fail (Printf.sprintf "%d context words for II %d" (Array.length enc) m.Mapping.ii)
              end;
              List.iter
                (fun name ->
                  if Machine.output_stream sim name <> Ocgra_dfg.Eval.output_stream reference name
                  then begin
                    ok := false;
                    fail (Printf.sprintf "simulated output %s differs from Eval.run" name)
                  end)
                k.outputs;
              (match k.expect with
              | Some (ii, pr) when (m.Mapping.ii, o.Mapper.proven_optimal) <> (ii, pr) ->
                  ok := false;
                  fail
                    (Printf.sprintf "exact verdict II %d proven %b, recorded optimum II %d proven %b"
                       m.Mapping.ii o.Mapper.proven_optimal ii pr)
              | _ -> ());
              if !ok then begin
                answers := (Compile, compile_s +. verify_s) :: !answers;
                ratios := ii_over_mii m.Mapping.ii k.dfg k.cgra :: !ratios
              end;
              ii_sum := !ii_sum + m.Mapping.ii;
              if o.Mapper.proven_optimal then incr proven;
              cycles := !cycles + sim.Machine.stats.Machine.cycles;
              route_instances := !route_instances + sim.Machine.stats.Machine.route_instances;
              words := !words + (Array.length enc * Ocgra_arch.Cgra.pe_count k.cgra)))
    kernels;
  {
    timed_s = !timed_s;
    attempted = List.length kernels;
    failures = List.rev !failures;
    answers = !answers;
    ratios = !ratios;
    fingerprint =
      [
        ("ii_sum", !ii_sum);
        ("mapper.attempts", !attempts);
        ("proven", !proven);
        ("context_words", !words);
        ("sim.cycles", !cycles);
        ("sim.route_instances", !route_instances);
      ];
    gate_violations = !gate_violations;
  }

(* A seeded random DFG with recurrences.  Draws in which one value
   feeds more than [max_fanout] operands are redrawn: on a mesh with
   four neighbours the greedy router cannot fan such a value out at any
   II, so they would fail rather than measure anything. *)
let max_fanout = 6

let random_dfg rng nodes =
  let params = { Ocgra_workloads.Random_dfg.default with nodes; layers = max 2 (nodes / 3) } in
  let fans_out dfg v = List.length (Dfg.out_edges dfg v) > max_fanout in
  let rec draw () =
    let ((dfg, _) as d) = Ocgra_workloads.Random_dfg.generate ~params rng in
    if List.exists (fans_out dfg) (List.init (Dfg.node_count dfg) Fun.id) then draw () else d
  in
  draw ()

(* Four seeded random DFGs of each size 12..32 (the generator's node
   target) plus the whole kernel library, mapped by the CLI/serve
   default on a healthy 4x4 mesh.  Fixing the size mix keeps the work
   per seed within a few percent; the order is shuffled by the seed so
   no kernel always runs on a cold heap. *)
let heuristic_flow seed =
  let rng = Rng.create seed in
  let cgra = Ocgra_arch.Cgra.uniform ~rows:4 ~cols:4 () in
  let random =
    List.init (4 * 21) (fun i ->
        let nodes = 12 + (i mod 21) in
        let dfg, streams = random_dfg rng nodes in
        {
          kname = Printf.sprintf "random-%d(%d nodes)" i (Dfg.node_count dfg);
          dfg;
          init = (fun _ -> 0);
          streams;
          memory = [];
          outputs = output_names dfg;
          cgra;
          expect = None;
        })
  in
  let library = List.map (of_library cgra) (Kernels.all ()) in
  let kernels = Array.to_list (Rng.shuffle rng (Array.of_list (random @ library))) in
  compile_pass (Ocgra_mappers.Registry.find "modulo-greedy") kernels

(* The four kernels of the incremental II sweep plus the 4x4 wall, with
   the optimum the sat mapper must prove on each.  The seed only
   shuffles the order: the solver's work per kernel is fixed, so the
   run-to-run spread is the machine's, not the inputs'. *)
let exact_cases =
  [
    ("running-max", 2, 3);
    ("absdiff", 2, 3);
    ("mix-round", 2, 4);
    ("matvec2", 3, 2);
    ("absdiff", 4, 2);
    ("fir4", 4, 2);
  ]

let exact_sat seed =
  let rng = Rng.create seed in
  let kernels =
    List.map
      (fun (name, grid, ii) ->
        let k =
          of_library ~expect:(ii, true)
            (Ocgra_arch.Cgra.uniform ~rows:grid ~cols:grid ())
            (Kernels.find name)
        in
        { k with kname = Printf.sprintf "%s@%dx%d" name grid grid })
      exact_cases
  in
  let kernels = Array.to_list (Rng.shuffle rng (Array.of_list kernels)) in
  compile_pass (Ocgra_mappers.Registry.find "sat") kernels

(* ------------------------------------------------------------------ *)
(* serve-stream: Wire.parse_req/to_request -> Svc.submit_batch ->      *)
(* Wire.response_to_json, one request per batch, one closed-loop client *)
(* ------------------------------------------------------------------ *)

let serve_requests = 880
let serve_max_level = 2

type kind = First | Dup | Iso | Grow

let kind_name = function First -> "first" | Dup -> "dup" | Iso -> "iso" | Grow -> "grow"

let lookup name =
  match Kernels.find name with
  | k -> Ok k.Kernels.dfg
  | exception Invalid_argument m -> Error m

(* 39 random-DFG classes (three of each size 12..24) and the 16 library
   kernels, in a seeded arrival order.  A new class arrives every
   [serve_requests / classes] requests, so every stream has the same
   number of first sightings, which are cold misses.  Every other
   request picks an already-seen class with weight 1/sqrt(rank) under a
   seeded popularity rank: ~30% isomorphic renamings, ~10% one more
   fault on the class's nested seeded mask (at most [serve_max_level];
   repair territory), the rest exact duplicates.  The cache holds every
   class, so the only other misses are repairs the ladder gives up on. *)
let serve_stream seed =
  let rng = Rng.create seed in
  let random =
    List.init 39 (fun i ->
        let dfg = fst (random_dfg rng (12 + (i mod 13))) in
        (Wire.Inline dfg, dfg))
  in
  let library =
    List.map (fun (k : Kernels.t) -> (Wire.Kernel k.Kernels.name, k.Kernels.dfg)) (Kernels.all ())
  in
  let classes = Rng.shuffle rng (Array.of_list (random @ library)) in
  let n = Array.length classes in
  let rank = Rng.shuffle rng (Array.init n Fun.id) in
  let weight c = 1.0 /. sqrt (float_of_int (rank.(c) + 1)) in
  let every = serve_requests / n in
  let draw seen =
    let total = ref 0.0 in
    for c = 0 to seen - 1 do total := !total +. weight c done;
    let u = Rng.float rng !total in
    let rec go c acc =
      if c = seen - 1 || acc +. weight c > u then c else go (c + 1) (acc +. weight c)
    in
    go 0 0.0
  in
  let fault_seed = Array.init n (fun _ -> Rng.int rng 1_000_000) in
  let level = Array.make n 0 in
  List.init serve_requests (fun i ->
      let c, kind =
        if i mod every = 0 && i / every < n then (i / every, First)
        else
          let c = draw (min n ((i / every) + 1)) in
          let u = Rng.float rng 1.0 in
          (c, if u < 0.10 && level.(c) < serve_max_level then Grow else if u < 0.40 then Iso else Dup)
      in
      if kind = Grow then level.(c) <- level.(c) + 1;
      let payload, dfg = classes.(c) in
      let payload =
        if kind = Iso then
          Wire.Inline (Canon.permute dfg (Rng.shuffle rng (Array.init (Dfg.node_count dfg) Fun.id)))
        else payload
      in
      let id = Printf.sprintf "r%d-c%d-%s" i c (kind_name kind) in
      ( c,
        dfg,
        Wire.req_to_json
          { Wire.default_req with Wire.id; payload; n_faults = level.(c); fault_seed = fault_seed.(c) }
      ))

let serve_config =
  {
    Svc.default_config with
    chain = [ Ocgra_mappers.Registry.find "modulo-greedy" ];
    workers = 1;
    seed = 7;
  }

(* The rendered response must say what the service returned. *)
let response_agrees line (m : Mapping.t) =
  match Ocgra_obs.Json.parse line with
  | Error _ -> false
  | Ok j -> (
      let field k f = Option.bind (Ocgra_obs.Json.member k j) f in
      match
        ( field "status" Ocgra_obs.Json.to_string,
          field "ii" Ocgra_obs.Json.to_int,
          field "binding" Ocgra_obs.Json.to_list )
      with
      | Some "ok", Some ii, Some b ->
          ii = m.Mapping.ii && List.length b = Array.length m.Mapping.binding
      | _ -> false)

let serve_stream_workload seed obs =
  let stream = Array.of_list (serve_stream seed) in
  let svc = Svc.create ~obs serve_config in
  fun () ->
    let traced = Ctx.enabled obs in
    let reps = Hashtbl.create 64 in
    let failures = ref [] and answers = ref [] and ratios = ref [] in
    let timed_s = ref 0.0 and gate_violations = ref 0 in
    let ii_sum = ref 0 and wire_errors = ref 0 in
    let rungs = Hashtbl.create 8 in
    Array.iteri
      (fun i (c, class_dfg, line) ->
        let fail id msg = failures := Printf.sprintf "%s: %s" id msg :: !failures in
        let served, dt =
          timed (fun () ->
              match
                span obs "bench:wire.parse" (fun () ->
                    Result.bind (Wire.parse_req line) (Wire.to_request ~lookup))
              with
              | Error e -> Error e
              | Ok req -> (
                  match span obs "bench:svc.submit" (fun () -> Svc.submit_batch svc [ req ]) with
                  | [ r ] ->
                      Ok (req, r, span obs "bench:wire.render" (fun () -> Wire.response_to_json r))
                  | rs -> Error (Printf.sprintf "%d responses to one request" (List.length rs))))
        in
        timed_s := !timed_s +. dt;
        match served with
        | Error e ->
            incr wire_errors;
            fail (Wire.salvage_id ~line:(i + 1) line) e
        | Ok (req, r, rendered) -> (
            (* attribution only: in a traced pass, replay the
               canonicalisation the cache does against the class
               representative *)
            let witnessed =
              (not traced)
              ||
              let rep =
                match Hashtbl.find_opt reps c with
                | Some rep -> rep
                | None ->
                    let rep = Canon.of_dfg class_dfg in
                    Hashtbl.replace reps c rep;
                    rep
              in
              let cf = span obs "bench:canon.of_dfg" (fun () -> Canon.of_dfg req.Svc.dfg) in
              span obs "bench:canon.witness" (fun () -> Canon.witness rep cf) <> None
            in
            match (r.Svc.served, r.Svc.mapping) with
            | _ when not witnessed -> fail r.Svc.id "no isomorphism witness to its own class"
            | Svc.Rejected, _ | _, None -> fail r.Svc.id ("rejected: " ^ r.Svc.note)
            | served, Some m ->
                let p =
                  Problem.temporal ?max_ii:req.Svc.max_ii ~dfg:req.Svc.dfg ~cgra:req.Svc.cgra ()
                in
                let violations = span obs "gate:validate" (fun () -> Check.validate p m) in
                gate_violations := !gate_violations + List.length violations;
                ii_sum := !ii_sum + m.Mapping.ii;
                if violations <> [] then fail r.Svc.id ("validator: " ^ String.concat " | " violations)
                else if r.Svc.ii <> Some m.Mapping.ii || not (response_agrees rendered m) then
                  fail r.Svc.id "rendered response disagrees with the mapping"
                else begin
                  let path =
                    match served with
                    | Svc.Hit | Svc.Iso_hit -> Hit
                    | Svc.Repair_hit rung ->
                        let name = Mapper.rung_to_string rung in
                        let seen = Option.value (Hashtbl.find_opt rungs name) ~default:0 in
                        Hashtbl.replace rungs name (seen + 1);
                        Repair
                    | _ -> Compile
                  in
                  answers := (path, dt) :: !answers;
                  if path <> Hit then
                    ratios := ii_over_mii m.Mapping.ii req.Svc.dfg req.Svc.cgra :: !ratios
                end))
      stream;
    let s = Svc.stats svc in
    {
      timed_s = !timed_s;
      attempted = Array.length stream;
      failures = List.rev !failures;
      answers = !answers;
      ratios = !ratios;
      fingerprint =
        [
          ("ii_sum", !ii_sum);
          ("svc.hits", s.Svc.hits);
          ("svc.iso_hits", s.Svc.iso_hits);
          ("svc.repair_hits", s.Svc.repair_hits);
          ("svc.misses", s.Svc.misses);
          ("svc.rejections", s.Svc.rejections);
          ("svc.demotions", s.Svc.demotions);
          ("svc.evictions", s.Svc.evictions);
          ("svc.entries", s.Svc.entries);
          ("wire.errors", !wire_errors);
        ]
        @ List.sort compare
            (List.map (fun (k, v) -> ("repair.rung." ^ k, v)) (List.of_seq (Hashtbl.to_seq rungs)));
      gate_violations = !gate_violations;
    }

let all =
  [
    ("heuristic-flow", heuristic_flow);
    ("exact-sat", exact_sat);
    ("serve-stream", serve_stream_workload);
  ]
