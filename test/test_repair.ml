(* Repair-ladder tests: certification contract (every repair result
   passes the validator under the new mask), II monotonicity below the
   fallback rung, worker-count determinism, diagnosis edge cases for
   Rf_reduced and Fu_slot_dead, and the fault-list canonicalization the
   ladder relies on. *)

open Ocgra_core
module Cgra = Ocgra_arch.Cgra
module Fault = Ocgra_arch.Fault
module Dfg = Ocgra_dfg.Dfg
module Op = Ocgra_dfg.Op
module Kernels = Ocgra_workloads.Kernels
module Rng = Ocgra_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let cgra44 = Cgra.uniform ~rows:4 ~cols:4 ()

let contains msg sub =
  let n = String.length msg and m = String.length sub in
  let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
  go 0

let chain = [ Ocgra_mappers.Registry.find "modulo-greedy" ]

let map_kernel ?(seed = 7) (k : Kernels.t) =
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 ~max_ii:12 () in
  match (Mapper.run (List.hd chain) ~seed p).Mapper.mapping with
  | Some m -> (p, m)
  | None -> Alcotest.fail (k.name ^ " should map on the healthy array")

let degrade (p : Problem.t) ~seed ~n =
  { p with Problem.cgra = Cgra.with_faults cgra44 (Cgra.inject_faults cgra44 ~seed ~n) }

(* ---------- fault canonicalization ---------- *)

let test_fault_canonical () =
  let a = Fault.Pe_down 2 and b = Fault.Link_down (1, 3) in
  checkb "dedup + order" true (Fault.canonical [ b; a; a; b ] = Fault.canonical [ a; b ]);
  Alcotest.(check string)
    "list_to_string is order/dup independent"
    (Fault.list_to_string [ a; b ])
    (Fault.list_to_string [ b; a; b; a ]);
  (* the constructors canonicalize too *)
  checki "with_faults dedups" 2 (List.length (Cgra.faults (Cgra.with_faults cgra44 [ b; a; b; a ])))

(* ---------- the untouched rung ---------- *)

let test_untouched () =
  let p, m = map_kernel (Kernels.saxpy ()) in
  let o = Repair.repair ~fallback:chain p m in
  checkb "rung is untouched" true (o.Repair.rung = Some Mapper.Untouched);
  checkb "mapping survives as-is" true (o.Repair.mapping = Some m);
  checkb "nothing diagnosed" true
    (o.Repair.diagnosis.Repair.dead_nodes = [] && o.Repair.diagnosis.Repair.broken_edges = [])

(* ---------- shape guard ---------- *)

let test_shape_refused () =
  let p, _ = map_kernel (Kernels.saxpy ()) in
  let _, m_other = map_kernel (Kernels.fir4 ()) in
  let o = Repair.repair ~fallback:chain p m_other in
  checkb "refused" true (o.Repair.mapping = None && contains o.Repair.note "refused")

(* ---------- certification + II monotonicity (property) ---------- *)

let qcheck_repair_certifies =
  QCheck.Test.make ~name:"every repair result passes Check.validate under the new mask" ~count:60
    QCheck.(pair (int_range 0 10_000) (int_range 1 10))
    (fun (seed, n) ->
      let k =
        Kernels.find
          (match seed mod 3 with 0 -> "saxpy" | 1 -> "fir4" | _ -> "dot-product")
      in
      let p, m0 = map_kernel k in
      let p' = degrade p ~seed ~n in
      let o = Repair.repair ~seed ~fallback:chain p' m0 in
      match o.Repair.mapping with
      | None -> o.Repair.rung = None
      | Some m ->
          Check.validate p' m = []
          && o.Repair.rung <> None
          (* rungs below the fallback never lower the II; the cold
             remap may (it owes nothing to the old schedule) *)
          && (o.Repair.rung = Some Mapper.Full_fallback || m.Mapping.ii >= m0.Mapping.ii))

(* ---------- determinism across worker counts ---------- *)

let test_deterministic_across_workers () =
  List.iter
    (fun n ->
      let p, m0 = map_kernel (Kernels.fir4 ()) in
      let p' = degrade p ~seed:1 ~n in
      (* single-tier fallback: the race degrades to the sequential
         harness, so the whole ladder is deterministic in its inputs
         whatever the worker count *)
      let o1 = Repair.repair ~seed:5 ~fallback:chain ~workers:1 p' m0 in
      let o4 = Repair.repair ~seed:5 ~fallback:chain ~workers:4 p' m0 in
      checkb "same rung" true (o1.Repair.rung = o4.Repair.rung);
      checkb "same mapping bytes" true
        (Marshal.to_string o1.Repair.mapping [] = Marshal.to_string o4.Repair.mapping []);
      checkb "same diagnosis" true (o1.Repair.diagnosis = o4.Repair.diagnosis))
    [ 2; 6; 10 ]

(* ---------- diagnosis: Fu_slot_dead ---------- *)

let test_diagnose_fu_slot_dead () =
  let p, m = map_kernel (Kernels.fir4 ()) in
  let ii = m.Mapping.ii in
  let pe, t = m.Mapping.binding.(0) in
  let p' = { p with Problem.cgra = Cgra.with_faults cgra44 [ Fault.Fu_slot_dead (pe, t mod ii) ] } in
  let o = Repair.repair ~fallback:chain p' m in
  let d = o.Repair.diagnosis in
  checkb "node 0 diagnosed dead" true (List.mem 0 d.Repair.dead_nodes);
  (* exactly the ops bound to the dead (pe, slot) are dead *)
  List.iter
    (fun v ->
      let pv, tv = m.Mapping.binding.(v) in
      checkb "diagnosed iff on the dead slot"
        (pv = pe && tv mod ii = t mod ii)
        (List.mem v d.Repair.dead_nodes))
    (List.init (Array.length m.Mapping.binding) Fun.id);
  (* and every edge touching a dead node is broken *)
  let edges = Array.of_list (Dfg.edges p.Problem.dfg) in
  Array.iteri
    (fun e (edge : Dfg.edge) ->
      if
        List.mem edge.Dfg.src d.Repair.dead_nodes || List.mem edge.Dfg.dst d.Repair.dead_nodes
      then checkb "incident edge broken" true (List.mem e d.Repair.broken_edges))
    edges;
  (* the ladder still salvages it, certified *)
  match o.Repair.mapping with
  | None -> Alcotest.fail "repair should salvage a single dead slot"
  | Some m' -> checkb "certified" true (Check.validate p' m' = [])

(* ---------- diagnosis: Rf_reduced ---------- *)

(* A two-op chain parked on one PE with a gap forces a Hold (the value
   waits in the PE's register file); shrinking that RF to zero must
   break exactly that edge — no binding dies, so the ladder's cheapest
   applicable rung is route-only. *)
let test_diagnose_rf_reduced () =
  let g = Dfg.create () in
  let u = Dfg.input g "u" in
  let v = Dfg.add g Op.Not in
  Dfg.add_edge g ~src:u ~dst:v ~port:0 ~dist:0;
  let p = Problem.temporal ~dfg:g ~cgra:cgra44 ~max_ii:4 ~max_time:24 () in
  let binding = [| (5, 0); (5, 3) |] in
  match Pathfinder.route_all p (Option.get (Occupancy.of_binding p ~ii:4 binding)) binding ~max_iters:8 with
  | None -> Alcotest.fail "two-op hold problem should route"
  | Some m ->
      checkb "route uses a hold" true
        (List.exists
           (function Mapping.Hold _ -> true | Mapping.Hop _ -> false)
           m.Mapping.routes.(0));
      checkb "valid when healthy" true (Check.validate p m = []);
      let rf = Cgra.effective_rf_size cgra44 5 in
      let p' = { p with Problem.cgra = Cgra.with_faults cgra44 [ Fault.Rf_reduced (5, rf) ] } in
      let o = Repair.repair ~fallback:chain p' m in
      let d = o.Repair.diagnosis in
      checkb "no binding dies" true (d.Repair.dead_nodes = []);
      checkb "the held edge breaks" true (d.Repair.broken_edges = [ 0 ]);
      (match o.Repair.mapping with
      | None -> Alcotest.fail "repair should route around a dead RF"
      | Some m' ->
          checkb "certified" true (Check.validate p' m' = []);
          checkb "no hold through the dead RF" true
            (List.for_all
               (function Mapping.Hold { pe = 5; _ } -> false | _ -> true)
               m'.Mapping.routes.(0)))

(* ---------- budget ---------- *)

let test_expired_budget_never_uncertified () =
  let p, m0 = map_kernel (Kernels.fir4 ()) in
  let p' = degrade p ~seed:1 ~n:10 in
  let o = Repair.repair ~deadline:(Deadline.after ~seconds:0.0) ~fallback:chain p' m0 in
  (* the expired clock may stop escalation, but whatever comes back is
     certified or nothing *)
  match o.Repair.mapping with
  | None -> checkb "failure reported" true (o.Repair.rung = None)
  | Some m -> checkb "certified despite expiry" true (Check.validate p' m = [])

(* ---------- frozen-occupancy satellite ---------- *)

let test_occupancy_preclaim () =
  let c = Cgra.with_faults cgra44 [ Fault.Pe_down 3; Fault.Fu_slot_dead (1, 0) ] in
  let occ = Occupancy.create ~cgra:c ~npe:16 ~ii:2 () in
  checkb "downed pe claimed" true (Occupancy.fu_user occ ~pe:3 ~time:0 = Some Occupancy.U_fault);
  checkb "dead slot claimed" true (Occupancy.fu_user occ ~pe:1 ~time:0 = Some Occupancy.U_fault);
  checkb "live slot free" true (Occupancy.fu_free occ ~pe:1 ~time:1);
  checkb "downed pe claimed at every slot" true
    (Occupancy.fu_user occ ~pe:3 ~time:1 = Some Occupancy.U_fault)

let test_claim_frozen_filters () =
  let occ = Occupancy.create ~npe:16 ~ii:2 () in
  let binding = [| (0, 0); (1, 1) |] in
  let routes = [| [ Mapping.Hop { pe = 4; time = 1 } ]; [] |] in
  Occupancy.claim_frozen occ ~skip_nodes:(fun v -> v = 1) ~keep_edge:(fun e -> e <> 0) ~binding
    ~routes ();
  checkb "node 0 claimed" true (Occupancy.fu_user occ ~pe:0 ~time:0 = Some (Occupancy.U_node 0));
  checkb "node 1 skipped" true (Occupancy.fu_free occ ~pe:1 ~time:1);
  checkb "edge 0 dropped" true (Occupancy.fu_free occ ~pe:4 ~time:1)

let () =
  Alcotest.run "repair"
    [
      ( "satellites",
        [
          Alcotest.test_case "fault canonicalization" `Quick test_fault_canonical;
          Alcotest.test_case "preclaim marks faults" `Quick test_occupancy_preclaim;
          Alcotest.test_case "claim_frozen filters" `Quick test_claim_frozen_filters;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "untouched rung" `Quick test_untouched;
          Alcotest.test_case "shape guard" `Quick test_shape_refused;
          QCheck_alcotest.to_alcotest qcheck_repair_certifies;
          Alcotest.test_case "worker-count determinism" `Quick test_deterministic_across_workers;
          Alcotest.test_case "expired budget" `Quick test_expired_budget_never_uncertified;
        ] );
      ( "diagnosis",
        [
          Alcotest.test_case "fu-slot-dead" `Quick test_diagnose_fu_slot_dead;
          Alcotest.test_case "rf-reduced" `Quick test_diagnose_rf_reduced;
        ] );
    ]
