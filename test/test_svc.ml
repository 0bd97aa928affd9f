(* Mapping-as-a-service tests: canonicalization (WL fingerprint is
   permutation-invariant, witnesses are exact), the cache decision tree
   (hit / iso-hit / repair-hit / miss), canonical fault masks in the
   key, deterministic seq-ordered eviction, the wire codec, and the
   worker-count-invariance property over random iso-renamed request
   streams. *)

module Svc = Ocgra_svc.Svc
module Cache = Ocgra_svc.Cache
module Canon = Ocgra_svc.Canon
module Wire = Ocgra_svc.Wire
module Cgra = Ocgra_arch.Cgra
module Fault = Ocgra_arch.Fault
module Dfg = Ocgra_dfg.Dfg
module Op = Ocgra_dfg.Op
module Kernels = Ocgra_workloads.Kernels
module Rng = Ocgra_util.Rng
open Ocgra_core

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let cgra44 = Cgra.uniform ~rows:4 ~cols:4 ()
let chain = [ Ocgra_mappers.Registry.find "modulo-greedy" ]
let config = { Svc.default_config with Svc.chain }

let req ?(id = "r") ?(cgra = cgra44) dfg = { Svc.id; dfg; cgra; spatial = false; max_ii = None }

let rand_perm rng n = Rng.shuffle rng (Array.init n Fun.id)

let served_name (r : Svc.response) = Svc.served_to_string r.Svc.served

(* ---------- canonical form ---------- *)

let test_fingerprint_invariant () =
  let rng = Rng.create 11 in
  List.iter
    (fun (k : Kernels.t) ->
      let c = Canon.of_dfg k.Kernels.dfg in
      for _ = 1 to 5 do
        let p = rand_perm rng (Dfg.node_count k.Kernels.dfg) in
        let c' = Canon.of_dfg (Canon.permute k.Kernels.dfg p) in
        checki (k.Kernels.name ^ " fingerprint is permutation-invariant")
          (Canon.fingerprint c) (Canon.fingerprint c');
        match Canon.witness c c' with
        | None -> Alcotest.fail (k.Kernels.name ^ ": witness must exist for a renaming")
        | Some w ->
            (* the witness is a bijection matching ops label-for-label *)
            let seen = Array.make (Array.length w) false in
            Array.iteri
              (fun i j ->
                checkb "injective" false seen.(j);
                seen.(j) <- true;
                checkb "class-compatible ops"
                  true
                  (Op.func_class (Dfg.op k.Kernels.dfg i)
                  = Op.func_class (Dfg.op (Canon.dfg c') j)))
              w
      done)
    (Kernels.small_suite ())

let test_fingerprint_separates () =
  (* different kernels should (essentially always) get different
     fingerprints; at minimum these structurally different pairs do *)
  let fp name = Canon.fingerprint (Canon.of_dfg (Kernels.find name).Kernels.dfg) in
  checkb "saxpy != fir4" true (fp "saxpy" <> fp "fir4");
  checkb "dot-product != horner" true (fp "dot-product" <> fp "horner")

let test_witness_rejects_relabel () =
  (* same shape, different op: must not be isomorphic *)
  let d1 = Dfg.create () in
  let a = Dfg.add d1 (Op.Input "a") in
  let b = Dfg.add d1 (Op.Binop Op.Add) in
  let o = Dfg.add d1 (Op.Output "y") in
  Dfg.add_edge d1 ~src:a ~dst:b;
  Dfg.add_edge d1 ~src:b ~dst:o ~port:1 |> ignore;
  let d2 = Dfg.create () in
  let a2 = Dfg.add d2 (Op.Input "a") in
  let b2 = Dfg.add d2 (Op.Binop Op.Mul) in
  let o2 = Dfg.add d2 (Op.Output "y") in
  Dfg.add_edge d2 ~src:a2 ~dst:b2;
  Dfg.add_edge d2 ~src:b2 ~dst:o2 ~port:1 |> ignore;
  checkb "add vs mul is not isomorphic" true
    (Canon.witness (Canon.of_dfg d1) (Canon.of_dfg d2) = None)

let test_witness_respects_edge_labels () =
  (* same nodes and arcs, different loop-carried distance: not iso *)
  let build dist =
    let d = Dfg.create () in
    let a = Dfg.add d (Op.Input "a") in
    let s = Dfg.add d (Op.Binop Op.Add) in
    let o = Dfg.add d (Op.Output "y") in
    Dfg.add_edge d ~src:a ~dst:s;
    Dfg.add_edge d ~src:s ~dst:s ~port:1 ~dist;
    Dfg.add_edge d ~src:s ~dst:o |> ignore;
    d
  in
  checkb "dist 1 vs dist 2 differ" true
    (Canon.witness (Canon.of_dfg (build 1)) (Canon.of_dfg (build 2)) = None)

(* Fingerprints recorded before the refinement moved to flat adjacency
   arrays: a changed colour, round count or [fp] mix would move every
   cache key. *)
let kernel_fingerprints =
  [
    ("dot-product", 1803490370112289270);
    ("saxpy", 4247992890087992660);
    ("fir4", 975350849707096621);
    ("iir2", 3775692112375835457);
    ("sobel-row", 259675593018529503);
    ("horner", 2456833043485146532);
    ("fft-butterfly", 1116588416114396368);
    ("running-max", 1228358412083391076);
    ("absdiff", 2595327824463203568);
    ("mix-round", 3099612642373383326);
    ("matvec2", 4016381382247938098);
    ("prefix-sum", 1430129894398276259);
    ("cmac", 2940268707325353769);
    ("moving-avg3", 3671431527442229151);
    ("alpha-blend", 4265524091584805018);
    ("conv3-store", 215170189790275583);
  ]

(* [Random_dfg] with [8 + i] nodes from seed [i], for i = 1..20 *)
let random_fingerprints =
  [|
    434234459033641834; 1387548012680527904; 171561711732370231; 1452458893996562659;
    3946345613180699232; 2658642394125232231; 694124968900789744; 1158310156118057649;
    3512755334473126215; 3356240519223560656; 31799940984095444; 1631911853592726165;
    3821069968996030002; 1632452067921432714; 2486635882892749230; 1826750744428431426;
    503182748413578276; 3956586768147294065; 2132931384785767447; 401191861405233234;
  |]

let random_dfg ~seed ~nodes =
  let open Ocgra_workloads.Random_dfg in
  fst (generate ~params:{ default with nodes } (Rng.create seed))

let test_fingerprint_goldens () =
  let fp d = Canon.fingerprint (Canon.of_dfg d) in
  Alcotest.(check (list string))
    "the library" (List.map fst kernel_fingerprints)
    (List.map (fun (k : Kernels.t) -> k.Kernels.name) (Kernels.all ()));
  List.iter
    (fun (k : Kernels.t) ->
      checki k.Kernels.name (List.assoc k.Kernels.name kernel_fingerprints) (fp k.Kernels.dfg))
    (Kernels.all ());
  Array.iteri
    (fun i want ->
      checki (Printf.sprintf "random dfg %d" (i + 1)) want
        (fp (random_dfg ~seed:(i + 1) ~nodes:(9 + i))))
    random_fingerprints

(* The identity test as it was before [Canon] stored sorted edge keys:
   equal mapping labels node by node and equal sorted edge-tuple lists. *)
let oracle_identical d1 d2 =
  let label op =
    let cls =
      match (op : Op.t) with
      | Op.Const _ -> 0
      | _ -> (
          match Op.func_class op with
          | Op.F_alu -> 1
          | Op.F_mul -> 2
          | Op.F_mem -> 3
          | Op.F_io -> 4
          | Op.F_route -> 5)
    in
    (cls * 16) + Op.latency op
  in
  let labels d = Array.init (Dfg.node_count d) (fun i -> label (Dfg.op d i)) in
  let edge_tuples d =
    List.sort compare
      (List.map
         (fun (e : Dfg.edge) -> (e.Dfg.src, e.Dfg.dst, e.Dfg.port, e.Dfg.dist))
         (Dfg.edges d))
  in
  labels d1 = labels d2 && edge_tuples d1 = edge_tuples d2

(* [d] rebuilt with [op] applied to each node's op, [edge] to each
   edge and the edge list reordered by [order]. *)
let rebuild ?(op = fun _ o -> o) ?(edge = fun _ e -> e) ?(order = Fun.id) d =
  let out = Dfg.create () in
  for i = 0 to Dfg.node_count d - 1 do
    ignore (Dfg.add ~name:(Dfg.name d i) out (op i (Dfg.op d i)))
  done;
  List.iteri
    (fun k e ->
      let (e : Dfg.edge) = edge k e in
      Dfg.add_edge ~dist:e.Dfg.dist ~port:e.Dfg.port out ~src:e.Dfg.src ~dst:e.Dfg.dst)
    (order (Dfg.edges d));
  out

(* Pairs of DFGs that are identical, reordered, or one op or one edge
   field apart; fields beyond the packed key's ranges exercise its
   unpacked form, on one side or on both. *)
let qcheck_identity_oracle =
  let variants =
    [| "same"; "shuffled"; "relabel"; "port"; "dist"; "wide both"; "wide one"; "wide differs" |]
  in
  QCheck.Test.make ~name:"stored identity key equals the sorted edge-list test" ~count:600
    QCheck.(
      make
        ~print:(fun (seed, nodes, v, pick) ->
          Printf.sprintf "seed %d, %d nodes, %s, pick %d" seed nodes variants.(v) pick)
        Gen.(
          quad (int_range 0 10_000) (int_range 4 20)
            (int_bound (Array.length variants - 1))
            (int_bound 1_000_000)))
    (fun (seed, nodes, v, pick) ->
      let d = random_dfg ~seed ~nodes in
      let n = Dfg.node_count d and m = Dfg.edge_count d in
      let at = pick mod max 1 m in
      let shuffled l = Array.to_list (Rng.shuffle (Rng.create pick) (Array.of_list l)) in
      let with_edge f = fun k (e : Dfg.edge) -> if k = at then f e else e in
      let wide (e : Dfg.edge) =
        match pick mod 3 with
        | 0 -> { e with Dfg.port = -1 }
        | 1 -> { e with Dfg.port = 64 + (pick mod 7) }
        | _ -> { e with Dfg.dist = (1 lsl 16) + (pick mod 5) }
      in
      let a, b =
        match variants.(v) with
        | "same" -> (d, rebuild d)
        | "shuffled" -> (d, rebuild ~order:shuffled d)
        | "relabel" ->
            let ops =
              Op.[| Const 1; Binop Add; Binop Sub; Binop Mul; Load "m"; Not |]
            in
            let op i o = if i = pick mod n then ops.(pick mod Array.length ops) else o in
            (d, rebuild ~op d)
        | "port" ->
            let port (e : Dfg.edge) = { e with Dfg.port = (e.Dfg.port + 1 + (pick mod 2)) mod 3 } in
            (d, rebuild ~edge:(with_edge port) d)
        | "dist" -> (d, rebuild ~edge:(with_edge (fun e -> { e with Dfg.dist = e.Dfg.dist + 1 })) d)
        | "wide both" ->
            (rebuild ~edge:(with_edge wide) d, rebuild ~edge:(with_edge wide) ~order:shuffled d)
        | "wide one" -> (d, rebuild ~edge:(with_edge wide) ~order:shuffled d)
        | _ ->
            let wider (e : Dfg.edge) = wide { e with Dfg.port = e.Dfg.port + 1 } in
            (rebuild ~edge:(with_edge wide) d, rebuild ~edge:(with_edge wider) d)
      in
      let ca = Canon.of_dfg a and cb = Canon.of_dfg b in
      let want = oracle_identical a b in
      Canon.identical ca cb = want
      && Canon.identical cb ca = want
      && ((not want) || Canon.witness ca cb = Some (Array.init n Fun.id)))

(* ---------- hit / iso-hit / repair / miss decision tree ---------- *)

let test_exact_duplicate_hits () =
  let svc = Svc.create config in
  let k = Kernels.find "saxpy" in
  let first = Svc.submit_batch svc [ req ~id:"a" k.Kernels.dfg ] in
  let rs = first @ Svc.submit_batch svc [ req ~id:"b" k.Kernels.dfg ] in
  Alcotest.(check (list string)) "miss then hit" [ "miss"; "hit" ] (List.map served_name rs);
  let s = Svc.stats svc in
  checki "one hit" 1 s.Svc.hits;
  checki "one miss" 1 s.Svc.misses

let test_iso_hit_certifies_on_renamed () =
  let svc = Svc.create config in
  let k = Kernels.find "fir4" in
  let rng = Rng.create 3 in
  ignore (Svc.submit_batch svc [ req ~id:"cold" k.Kernels.dfg ]);
  let renamed = Canon.permute k.Kernels.dfg (rand_perm rng (Dfg.node_count k.Kernels.dfg)) in
  match Svc.submit_batch svc [ req ~id:"renamed" renamed ] with
  | [ r ] ->
      Alcotest.(check string) "served" "iso-hit" (served_name r);
      let m = Option.get r.Svc.mapping in
      (* the certification that matters: valid on the RENAMED kernel *)
      let p = Problem.temporal ~dfg:renamed ~cgra:cgra44 () in
      Alcotest.(check (list string)) "validates on the renamed kernel" [] (Check.validate p m)
  | _ -> Alcotest.fail "one response expected"

let test_mask_canonical_key () =
  (* permuted-but-equal fault masks must land on the same entry: the
     first request pays, the second (same mask, different order and a
     duplicate) is a pure hit, not a repair and not a miss *)
  let svc = Svc.create config in
  let k = Kernels.find "absdiff" in
  let f1 = Fault.Pe_down 3 and f2 = Fault.Link_down (1, 2) in
  let c1 = Cgra.with_faults cgra44 [ f1; f2 ] in
  let c2 = Cgra.with_faults cgra44 [ f2; f1; f2 ] in
  ignore (Svc.submit_batch svc [ req ~id:"a" ~cgra:c1 k.Kernels.dfg ]);
  match Svc.submit_batch svc [ req ~id:"b" ~cgra:c2 k.Kernels.dfg ] with
  | [ r ] ->
      Alcotest.(check string) "same canonical mask is a pure hit" "hit" (served_name r);
      checki "no repairs" 0 (Svc.stats svc).Svc.repair_hits
  | _ -> Alcotest.fail "one response expected"

let test_mask_growth_repairs_shrink_hits () =
  let svc = Svc.create config in
  let k = Kernels.find "saxpy" in
  let grown = Cgra.with_faults cgra44 (Cgra.inject_faults cgra44 ~seed:3 ~n:4) in
  ignore (Svc.submit_batch svc [ req ~id:"cold" ~cgra:grown k.Kernels.dfg ]);
  (* a *smaller* mask is still covered by the cached certificate *)
  let shrunk = Cgra.with_faults cgra44 (Cgra.inject_faults cgra44 ~seed:3 ~n:2) in
  (match Svc.submit_batch svc [ req ~id:"sub" ~cgra:shrunk k.Kernels.dfg ] with
  | [ r ] ->
      Alcotest.(check string) "subset mask is a hit" "hit" (served_name r);
      let p = Problem.temporal ~dfg:k.Kernels.dfg ~cgra:shrunk () in
      Alcotest.(check (list string)) "certified under the subset mask" []
        (Check.validate p (Option.get r.Svc.mapping))
  | _ -> Alcotest.fail "one response expected");
  (* a grown mask goes through the repair ladder or, failing that, a
     cold remap — never an uncertified answer *)
  let grown6 = Cgra.with_faults cgra44 (Cgra.inject_faults cgra44 ~seed:3 ~n:6) in
  match Svc.submit_batch svc [ req ~id:"grow" ~cgra:grown6 k.Kernels.dfg ] with
  | [ r ] ->
      (match r.Svc.served with
      | Svc.Repair_hit _ | Svc.Miss -> ()
      | s -> Alcotest.fail ("grown mask should repair or remap, got " ^ Svc.served_to_string s));
      (match r.Svc.mapping with
      | Some m ->
          let p = Problem.temporal ~dfg:k.Kernels.dfg ~cgra:grown6 () in
          Alcotest.(check (list string)) "certified under the grown mask" [] (Check.validate p m)
      | None -> Alcotest.fail "expected a mapping")
  | _ -> Alcotest.fail "one response expected"

let test_arch_is_part_of_the_key () =
  let svc = Svc.create config in
  let k = Kernels.find "dot-product" in
  ignore (Svc.submit_batch svc [ req ~id:"a" k.Kernels.dfg ]);
  let c33 = Cgra.uniform ~rows:3 ~cols:3 () in
  match Svc.submit_batch svc [ req ~id:"b" ~cgra:c33 k.Kernels.dfg ] with
  | [ r ] -> Alcotest.(check string) "other fabric misses" "miss" (served_name r)
  | _ -> Alcotest.fail "one response expected"

let test_rejects_invalid_and_failures () =
  let svc = Svc.create config in
  (* a DFG with a dangling operand port is rejected, not mapped *)
  let d = Dfg.create () in
  let a = Dfg.add d (Op.Input "a") in
  let b = Dfg.add d (Op.Binop Op.Add) in
  Dfg.add_edge d ~src:a ~dst:b |> ignore;
  (* an unmappable problem (everything needs mul, no mul PEs) fails
     cleanly too *)
  let mul_only = Dfg.create () in
  let m1 = Dfg.add mul_only (Op.Input "x") in
  let m2 = Dfg.add mul_only (Op.Binop Op.Mul) in
  let m3 = Dfg.add mul_only (Op.Output "y") in
  Dfg.add_edge mul_only ~src:m1 ~dst:m2;
  Dfg.add_edge mul_only ~src:m1 ~dst:m2 ~port:1;
  Dfg.add_edge mul_only ~src:m2 ~dst:m3 |> ignore;
  let dead = Cgra.with_faults cgra44 (List.init 16 (fun i -> Fault.Pe_down i)) in
  let rs =
    Svc.submit_batch svc [ req ~id:"invalid" d; req ~id:"unmappable" ~cgra:dead mul_only ]
  in
  Alcotest.(check (list string))
    "both rejected" [ "rejected"; "rejected" ] (List.map served_name rs);
  checki "no cache pollution" 0 (Svc.stats svc).Svc.entries

(* ---------- deterministic eviction ---------- *)

let test_lru_eviction_deterministic () =
  let svc = Svc.create { config with Svc.capacity = 2 } in
  let dfg name = (Kernels.find name).Kernels.dfg in
  ignore (Svc.submit_batch svc [ req ~id:"a" (dfg "saxpy") ]);
  ignore (Svc.submit_batch svc [ req ~id:"b" (dfg "fir4") ]);
  (* touch saxpy so fir4 is the least recently used *)
  ignore (Svc.submit_batch svc [ req ~id:"a2" (dfg "saxpy") ]);
  ignore (Svc.submit_batch svc [ req ~id:"c" (dfg "absdiff") ]);
  let s = Svc.stats svc in
  checki "capacity bound" 2 s.Svc.entries;
  checki "one eviction" 1 s.Svc.evictions;
  (* saxpy survived (hit), fir4 was evicted (miss again) *)
  let r1 = List.hd (Svc.submit_batch svc [ req ~id:"a3" (dfg "saxpy") ]) in
  Alcotest.(check string) "recently-used survived" "hit" (served_name r1);
  let r2 = List.hd (Svc.submit_batch svc [ req ~id:"b2" (dfg "fir4") ]) in
  Alcotest.(check string) "LRU victim was evicted" "miss" (served_name r2)

(* ---------- in-batch coalescing ---------- *)

let test_batch_coalescing () =
  let svc = Svc.create config in
  let k = Kernels.find "horner" in
  let rng = Rng.create 5 in
  let renamed = Canon.permute k.Kernels.dfg (rand_perm rng (Dfg.node_count k.Kernels.dfg)) in
  let rs =
    Svc.submit_batch svc
      [ req ~id:"a" k.Kernels.dfg; req ~id:"b" k.Kernels.dfg; req ~id:"c" renamed ]
  in
  Alcotest.(check (list string))
    "one cold map, two coalesced" [ "miss"; "hit"; "iso-hit" ] (List.map served_name rs);
  let s = Svc.stats svc in
  checki "coalesced counted" 2 s.Svc.coalesced;
  checki "single entry" 1 s.Svc.entries

(* ---------- one counter store ---------- *)

(* Every [Svc.stats] tally is derived from the [svc.*] counters the
   service also folds into the caller's metrics, so the two never
   disagree — including [coalesced] and [demotions]. *)
let test_stats_match_metrics () =
  let metrics = Ocgra_obs.Metrics.create () in
  let obs = Ocgra_obs.Ctx.v ~trace:Ocgra_obs.Trace.off ~metrics () in
  let svc = Svc.create ~obs config in
  let dfg name = (Kernels.find name).Kernels.dfg in
  let renamed =
    Canon.permute (dfg "saxpy") (rand_perm (Rng.create 7) (Dfg.node_count (dfg "saxpy")))
  in
  let masked n = Cgra.with_faults cgra44 (Cgra.inject_faults cgra44 ~seed:3 ~n) in
  let dangling = Dfg.create () in
  let a = Dfg.add dangling (Op.Input "a") in
  Dfg.add_edge dangling ~src:a ~dst:(Dfg.add dangling (Op.Binop Op.Add)) |> ignore;
  let served =
    List.concat_map
      (fun batch -> List.map served_name (Svc.submit_batch svc batch))
      [
        [ req ~id:"cold" (dfg "saxpy"); req ~id:"dup" (dfg "saxpy") ];
        [ req ~id:"hit" (dfg "saxpy"); req ~id:"iso" renamed ];
        [ req ~id:"f2" ~cgra:(masked 2) (dfg "saxpy") ];
        [ req ~id:"f4" ~cgra:(masked 4) (dfg "saxpy") ];
        [ req ~id:"bad" dangling ];
      ]
  in
  Alcotest.(check (list string))
    "stream paths"
    [ "miss"; "hit"; "hit"; "iso-hit"; "miss"; "repair-hit"; "rejected" ]
    served;
  let s = Svc.stats svc in
  List.iter
    (fun (name, v) -> checki name v (Ocgra_obs.Metrics.get metrics name))
    [
      ("svc.requests", s.Svc.requests);
      ("svc.hits", s.Svc.hits);
      ("svc.iso_hits", s.Svc.iso_hits);
      ("svc.repair_hits", s.Svc.repair_hits);
      ("svc.misses", s.Svc.misses);
      ("svc.rejections", s.Svc.rejections);
      ("svc.coalesced", s.Svc.coalesced);
      ("svc.demotions", s.Svc.demotions);
    ];
  checki "requests" 7 s.Svc.requests;
  checki "coalesced" 1 s.Svc.coalesced;
  checki "batches" 5 (Ocgra_obs.Metrics.get metrics "svc.batches")

(* ---------- supervisor quarantine ---------- *)

(* A cold map that raises is rerun by the supervisor and, once all
   [1 + retries] tries have raised, answered as a rejection; the rest
   of its batch is still served, identically on any worker count. *)
let test_raising_cold_map_quarantined () =
  let fingerprint dfg = Canon.fingerprint (Canon.of_dfg dfg) in
  let poison = fingerprint (Kernels.find "fir4").Kernels.dfg in
  let greedy = Ocgra_mappers.Registry.find "modulo-greedy" in
  let run workers =
    let tries = Atomic.make 0 in
    let raising =
      Mapper.make ~name:"raises-on-fir4" ~citation:"-" ~scope:Taxonomy.Temporal_mapping
        ~approach:Taxonomy.Heuristic (fun p rng dl obs ->
          if fingerprint p.Problem.dfg = poison then begin
            Atomic.incr tries;
            failwith "poisoned kernel"
          end
          else greedy.Mapper.map p rng dl obs)
    in
    let metrics = Ocgra_obs.Metrics.create () in
    let obs = Ocgra_obs.Ctx.v ~trace:Ocgra_obs.Trace.off ~metrics () in
    let svc = Svc.create ~obs { config with Svc.chain = [ raising ]; workers; retries = 2 } in
    let rs =
      Svc.submit_batch svc
        (List.map
           (fun name -> req ~id:name (Kernels.find name).Kernels.dfg)
           [ "saxpy"; "fir4"; "absdiff"; "dot-product" ])
    in
    (List.map (fun (r : Svc.response) -> { r with Svc.elapsed_s = 0.0 }) rs, tries, metrics)
  in
  let rs, tries, metrics = run 1 in
  Alcotest.(check (list string))
    "only the raising kernel is rejected" [ "miss"; "rejected"; "miss"; "miss" ]
    (List.map served_name rs);
  Alcotest.(check string)
    "rejection names the supervisor" "cold map quarantined by the supervisor"
    (List.nth rs 1).Svc.note;
  checkb "every other request is answered" true
    (List.for_all (fun (r : Svc.response) -> r.Svc.id = "fir4" || r.Svc.mapping <> None) rs);
  checki "1 + retries tries" 3 (Atomic.get tries);
  checki "supervise.retries" 2 (Ocgra_obs.Metrics.get metrics "supervise.retries");
  checki "supervise.quarantined" 1 (Ocgra_obs.Metrics.get metrics "supervise.quarantined");
  let rs4, _, _ = run 4 in
  checkb "identical responses on 4 workers" true (rs4 = rs)

let test_negative_retries_rejected () =
  Alcotest.check_raises "negative retries"
    (Invalid_argument "Svc.create: negative retry count") (fun () ->
      ignore (Svc.create { config with Svc.retries = -1 }))

(* ---------- wire codec ---------- *)

let test_wire_roundtrip () =
  let k = Kernels.find "fir4" in
  let r =
    {
      Wire.default_req with
      Wire.id = "w1";
      payload = Wire.Inline k.Kernels.dfg;
      rows = 5;
      cols = 3;
      topology = "torus";
      faults = [ Fault.Link_down (1, 2); Fault.Pe_down 3 ];
      spatial = true;
      max_ii = Some 4;
    }
  in
  match Wire.parse_req (Wire.req_to_json r) with
  | Error e -> Alcotest.fail ("roundtrip parse failed: " ^ e)
  | Ok r' -> (
      Alcotest.(check string) "id" r.Wire.id r'.Wire.id;
      checki "rows" r.Wire.rows r'.Wire.rows;
      checki "cols" r.Wire.cols r'.Wire.cols;
      Alcotest.(check string) "topology" r.Wire.topology r'.Wire.topology;
      checkb "spatial" r.Wire.spatial r'.Wire.spatial;
      checkb "max_ii" true (r'.Wire.max_ii = Some 4);
      checkb "faults survive canonically" true
        (Fault.canonical r.Wire.faults = Fault.canonical r'.Wire.faults);
      match r'.Wire.payload with
      | Wire.Inline d ->
          (* the inline DFG round-trips up to identity witness *)
          checkb "dfg identical up to codec" true
            (Canon.witness (Canon.of_dfg k.Kernels.dfg) (Canon.of_dfg d)
            = Some (Array.init (Dfg.node_count d) Fun.id))
      | _ -> Alcotest.fail "expected inline payload")

let test_wire_malformed () =
  let lookup name =
    match Kernels.find name with
    | k -> Ok k.Kernels.dfg
    | exception Invalid_argument m -> Error m
  in
  let bad l =
    match Result.bind (Wire.parse_req l) (Wire.to_request ~lookup) with
    | Error _ -> true
    | Ok _ -> false
  in
  checkb "not json" true (bad "garbage");
  checkb "no id" true (bad "{\"kernel\":\"saxpy\"}");
  checkb "no payload" true (bad "{\"id\":\"x\"}");
  checkb "both payloads" true (bad "{\"id\":\"x\",\"kernel\":\"a\",\"dfg\":{\"nodes\":[]}}");
  checkb "bad op" true (bad "{\"id\":\"x\",\"dfg\":{\"nodes\":[{\"op\":\"frobnicate\"}]}}");
  checkb "edge out of range" true
    (bad "{\"id\":\"x\",\"dfg\":{\"nodes\":[{\"op\":\"nop\"}],\"edges\":[[0,9,0,0]]}}");
  checkb "bad fault kind" true (bad "{\"id\":\"x\",\"kernel\":\"saxpy\",\"faults\":[[\"cpu\",1]]}");
  (* a listed fault names a resource of the healthy array (4x4 mesh by
     default); rf and n_faults are counts *)
  let req fields = {|{"id":"x","kernel":"saxpy",|} ^ fields ^ "}" in
  checkb "faults on real resources" false
    (bad (req {|"faults":[["pe",15],["link",0,1],["slot",3,0],["rf",2,1]],"rf":0,"n_faults":2|}));
  List.iter
    (fun (what, fields) -> checkb what true (bad (req fields)))
    [
      ("pe off the array", {|"faults":[["pe",99]]|});
      ("negative pe", {|"faults":[["pe",-1]]|});
      ("pe off a 2x2", {|"rows":2,"cols":2,"faults":[["pe",5]]|});
      ("slot fault off the array", {|"faults":[["slot",16,0]]|});
      ("rf fault off the array", {|"faults":[["rf",16,1]]|});
      ("link from off the array", {|"faults":[["link",16,15]]|});
      ("link that is no wire", {|"faults":[["link",0,15]]|});
      ("link to itself", {|"faults":[["link",5,5]]|});
      ("negative slot", {|"faults":[["slot",1,-1]]|});
      ("rf fault adding registers", {|"faults":[["rf",0,-5]]|});
      ("rf fault losing nothing", {|"faults":[["rf",0,0]]|});
      ("negative rf", {|"rf":-3|});
      ("negative n_faults", {|"n_faults":-1|});
    ];
  (* a bad \u escape is a parse error, never an exception *)
  List.iter
    (fun id ->
      let line = {|{"id":"|} ^ id ^ {|","kernel":"saxpy"}|} in
      checkb ("bad escape " ^ id) true (bad line);
      checkb ("no id salvaged from " ^ id) true (Wire.salvage_id ~line:3 line = "line-3"))
    [ {|\uZZZZ|}; {|\u12"|}; {|\u_1_2|} ];
  checkb "salvages id" true (Wire.salvage_id ~line:7 "{\"id\":\"keep\",\"kernel\":" = "line-7");
  checkb "salvages id from valid json" true
    (Wire.salvage_id ~line:7 "{\"id\":\"keep\",\"rows\":true}" = "keep")

(* [Dfg.add_edge] raises on a negative distance; the reader must turn
   it into the line's error first, or the daemon dies on the line. *)
let test_wire_negative_distance () =
  Alcotest.(check (result reject string))
    "negative distance" (Error "dfg edge 0->1: negative distance")
    (Result.map ignore
       (Wire.parse_req {|{"id":"x","dfg":{"nodes":[{"op":"in a"},{"op":"out b"}],"edges":[[0,1,0,-1]]}}|}))

(* The rendered bytes are the wire contract (SERVE_STREAM.jsonl and
   response files are compared with cmp), so pin them exactly. *)
let test_wire_golden_request () =
  let d = Dfg.create () in
  let a = Dfg.add ~name:"a" d (Op.Input "a") in
  let c = Dfg.add ~name:"" d (Op.Const (-3)) in
  let m = Dfg.add d (Op.Binop Op.Mul) in
  Dfg.add_edge d ~src:a ~dst:m;
  Dfg.add_edge ~port:1 ~dist:1 d ~src:c ~dst:m;
  Alcotest.(check string)
    "inline request, every optional field"
    ({|{"id":"g\"1","dfg":{"nodes":[{"op":"in a","name":"a"},{"op":"const -3"},{"op":"mul","name":"n2"}],|}
    ^ {|"edges":[[0,2,0,0],[1,2,1,1]]},"rows":3,"cols":2,"topology":"torus","hetero":true,|}
    ^ {|"rf":4,"faults":[["pe",1],["link",0,1]],"n_faults":2,"fault_seed":9,"spatial":true,|}
    ^ {|"max_ii":6}|})
    (Wire.req_to_json
       {
         Wire.id = "g\"1";
         payload = Wire.Inline d;
         rows = 3;
         cols = 2;
         topology = "torus";
         hetero = true;
         rf = Some 4;
         faults = [ Fault.Link_down (0, 1); Fault.Pe_down 1 ];
         n_faults = 2;
         fault_seed = 9;
         spatial = true;
         max_ii = Some 6;
       });
  Alcotest.(check string)
    "kernel request, defaults omitted" {|{"id":"k","kernel":"saxpy","rows":4,"cols":4}|}
    (Wire.req_to_json { Wire.default_req with Wire.id = "k"; payload = Wire.Kernel "saxpy" })

let test_wire_golden_response () =
  let mapping = { Mapping.ii = 2; binding = [| (0, 0); (3, 1) |]; routes = [||] } in
  let resp served mapping =
    { Svc.id = "r\n"; served; mapping; ii = None; note = "ok \"q\""; elapsed_s = 0.5 }
  in
  Alcotest.(check string)
    "repair hit"
    ({|{"id":"r\n","status":"ok","served":"repair-hit","rung":"route-only","ii":2,|}
    ^ {|"certified":true,"binding":[[0,0],[3,1]],"note":"ok \"q\""}|})
    (Wire.response_to_json (resp (Svc.Repair_hit Mapper.Route_only) (Some mapping)));
  Alcotest.(check string)
    "rejection" {|{"id":"r\n","status":"rejected","note":"ok \"q\""}|}
    (Wire.response_to_json (resp Svc.Rejected None));
  Alcotest.(check string)
    "error line" {|{"id":"line-4","status":"error","error":"bad\u0007"}|}
    (Wire.error_to_json ~id:"line-4" "bad\007")

(* ---------- worker-count invariance + certification (QCheck) ---------- *)

let qcheck_iso_requests_certify =
  QCheck.Test.make ~name:"random iso-renamed streams: certified hits, worker-invariant counts"
    ~count:12
    QCheck.(pair (int_range 0 1000) (int_range 6 14))
    (fun (seed, nodes) ->
      let rng = Rng.create seed in
      let dfg, _ =
        Ocgra_workloads.Random_dfg.generate
          ~params:{ Ocgra_workloads.Random_dfg.default with Ocgra_workloads.Random_dfg.nodes }
          rng
      in
      let n = Dfg.node_count dfg in
      let reqs =
        req ~id:"cold" dfg
        :: List.map
             (fun i ->
               req ~id:(Printf.sprintf "iso-%d" i) (Canon.permute dfg (rand_perm rng n)))
             [ 1; 2; 3 ]
      in
      let serve workers =
        let svc = Svc.create { config with Svc.workers } in
        List.concat_map (fun r -> Svc.submit_batch svc [ r ]) reqs |> fun rs ->
        (rs, Svc.stats svc)
      in
      let rs1, s1 = serve 1 in
      let rs4, s4 = serve 4 in
      (* every response with a mapping is certified on ITS OWN dfg *)
      List.iter2
        (fun (r : Svc.response) (q : Svc.request) ->
          match r.Svc.mapping with
          | None -> ()
          | Some m ->
              let p = Problem.temporal ~dfg:q.Svc.dfg ~cgra:cgra44 () in
              if Check.validate p m <> [] then
                QCheck.Test.fail_report "uncertified mapping returned")
        rs1 reqs;
      (* the first request is never a hit; renamings hit iff it mapped *)
      (match (rs1, List.tl rs1) with
      | r0 :: _, rest ->
          if r0.Svc.served = Svc.Miss then
            List.iter
              (fun (r : Svc.response) ->
                if r.Svc.served <> Svc.Iso_hit && r.Svc.served <> Svc.Hit then
                  QCheck.Test.fail_report "renaming of a cached kernel must hit")
              rest
      | _ -> ());
      (* counts are a pure function of the stream, not the worker count *)
      s1.Svc.hits = s4.Svc.hits && s1.Svc.iso_hits = s4.Svc.iso_hits
      && s1.Svc.misses = s4.Svc.misses
      && s1.Svc.rejections = s4.Svc.rejections
      && List.map served_name rs1 = List.map served_name rs4)

(* ---------- Fault.subset ---------- *)

let test_fault_subset () =
  let a = Fault.Pe_down 1 and b = Fault.Link_down (0, 1) and c = Fault.Rf_reduced (2, 1) in
  checkb "empty is subset" true (Fault.subset [] [ a ]);
  checkb "subset holds any order" true (Fault.subset [ b; a ] [ a; c; b ]);
  checkb "duplicates ignored" true (Fault.subset [ a; a ] [ a ]);
  checkb "superset is not subset" false (Fault.subset [ a; c ] [ a ]);
  checkb "incomparable" false (Fault.subset [ b ] [ c ])

let () =
  Alcotest.run "svc"
    [
      ( "canon",
        [
          Alcotest.test_case "fingerprint permutation-invariant" `Quick test_fingerprint_invariant;
          Alcotest.test_case "fingerprints separate kernels" `Quick test_fingerprint_separates;
          Alcotest.test_case "witness rejects op relabel" `Quick test_witness_rejects_relabel;
          Alcotest.test_case "witness respects edge labels" `Quick test_witness_respects_edge_labels;
          Alcotest.test_case "fingerprint goldens" `Quick test_fingerprint_goldens;
          QCheck_alcotest.to_alcotest qcheck_identity_oracle;
        ] );
      ( "decision-tree",
        [
          Alcotest.test_case "exact duplicate hits" `Quick test_exact_duplicate_hits;
          Alcotest.test_case "iso hit certifies on renamed" `Quick test_iso_hit_certifies_on_renamed;
          Alcotest.test_case "canonical mask key" `Quick test_mask_canonical_key;
          Alcotest.test_case "mask growth repairs, shrink hits" `Quick
            test_mask_growth_repairs_shrink_hits;
          Alcotest.test_case "arch in the key" `Quick test_arch_is_part_of_the_key;
          Alcotest.test_case "rejections" `Quick test_rejects_invalid_and_failures;
        ] );
      ( "cache",
        [
          Alcotest.test_case "deterministic LRU eviction" `Quick test_lru_eviction_deterministic;
          Alcotest.test_case "in-batch coalescing" `Quick test_batch_coalescing;
          Alcotest.test_case "stats equal svc metrics" `Quick test_stats_match_metrics;
          Alcotest.test_case "negative retries rejected" `Quick test_negative_retries_rejected;
          Alcotest.test_case "raising cold map quarantined" `Quick
            test_raising_cold_map_quarantined;
        ] );
      ( "wire",
        [
          Alcotest.test_case "request roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "malformed lines are errors" `Quick test_wire_malformed;
          Alcotest.test_case "negative distance is an error" `Quick test_wire_negative_distance;
          Alcotest.test_case "request bytes pinned" `Quick test_wire_golden_request;
          Alcotest.test_case "response bytes pinned" `Quick test_wire_golden_response;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_iso_requests_certify;
          Alcotest.test_case "fault subset" `Quick test_fault_subset;
        ] );
    ]
