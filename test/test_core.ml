(* Core framework tests: MII bounds, the router, the independent
   checker (including its ability to catch corrupted mappings),
   occupancy bookkeeping, costs, context generation, taxonomy. *)

open Ocgra_core
module Dfg = Ocgra_dfg.Dfg
module Op = Ocgra_dfg.Op
module Cgra = Ocgra_arch.Cgra
module Rng = Ocgra_util.Rng
module Kernels = Ocgra_workloads.Kernels

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let cgra44 = Cgra.uniform ~rows:4 ~cols:4 ()

let mapped_kernel ?(seed = 42) (k : Kernels.t) =
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 ~max_ii:16 () in
  let rng = Rng.create seed in
  match Ocgra_mappers.Constructive.map p rng with
  | Some m, _, _ -> (p, m)
  | None, _, _ -> Alcotest.fail (Printf.sprintf "could not map %s" k.name)

(* ---------- Mii ---------- *)

let test_mii () =
  checki "dot product mii" 1 (Mii.mii (Kernels.dot_product ()).dfg cgra44);
  checki "horner mii (rec bound)" 2 (Mii.mii (Kernels.find "horner").dfg cgra44);
  (* resource bound: 20 alu ops on a 2x2 need ceil(20/4) = 5 *)
  let g = Dfg.create () in
  let a = Dfg.input g "a" in
  let prev = ref a in
  for _ = 1 to 19 do
    prev := Dfg.binop g Op.Add !prev a
  done;
  let small = Cgra.uniform ~rows:2 ~cols:2 () in
  checki "res bound" 5 (Mii.res_mii g small)

let test_mii_heterogeneous () =
  (* 4 loads on an adres-like 2x2 with a single mem column (2 cells) *)
  let g = Dfg.create () in
  let i = Dfg.input g "i" in
  for _ = 1 to 4 do
    ignore (Dfg.load g "m" i)
  done;
  let cgra = Cgra.adres_like ~rows:2 ~cols:2 () in
  checkb "mem pressure drives mii" true (Mii.res_mii g cgra >= 2)

(* ---------- router ---------- *)

let test_router_direct_adjacency () =
  let occ = Occupancy.create ~npe:16 ~ii:2 () in
  let cm = Route.strict cgra44 occ in
  (* produce on pe 5 at t=0 (readable 1), consume on neighbour 6 at 1 *)
  let ws = Route.workspace cgra44 in
  match Route.route_edge ws cm ~ii:2 ~src:(5, 1) ~dst:(6, 1) ~lat:0 ~dist:0 with
  | Some ([], 0) -> ()
  | Some (steps, _) ->
      Alcotest.fail
        (Printf.sprintf "expected empty route, got %d steps" (List.length steps))
  | None -> Alcotest.fail "expected a route"

let test_router_respects_occupancy () =
  let occ = Occupancy.create ~npe:4 ~ii:1 () in
  let cgra = Cgra.uniform ~rows:2 ~cols:2 () in
  (* block every PE except the endpoints: pes 0 -> 3 need 1 intermediate *)
  Occupancy.claim_fu occ ~pe:1 ~time:0 (Occupancy.U_node 99);
  Occupancy.claim_fu occ ~pe:2 ~time:0 (Occupancy.U_node 98);
  let cm = Route.strict cgra occ in
  checkb "blocked" true
    (Route.route_edge (Route.workspace cgra) cm ~ii:1 ~src:(0, 1) ~dst:(3, 2) ~lat:0 ~dist:0 = None)

let test_router_uses_hold () =
  (* waiting 3 cycles on the same PE at II >= 2 should use the RF *)
  let occ = Occupancy.create ~npe:16 ~ii:4 () in
  let cm = Route.strict cgra44 occ in
  let ws = Route.workspace cgra44 in
  match Route.route_edge ws cm ~ii:4 ~src:(5, 1) ~dst:(5, 4) ~lat:0 ~dist:0 with
  | Some (steps, _) ->
      checkb "uses a hold" true
        (List.exists (function Mapping.Hold _ -> true | Mapping.Hop _ -> false) steps)
  | None -> Alcotest.fail "expected a route"

let test_router_no_backward_time () =
  let occ = Occupancy.create ~npe:16 ~ii:2 () in
  let cm = Route.strict cgra44 occ in
  checkb "no time travel" true
    (Route.route_edge (Route.workspace cgra44) cm ~ii:2 ~src:(5, 3) ~dst:(6, 2) ~lat:0 ~dist:0
    = None)

(* The router as it stood before prices were memoised per search and
   adjacency was stored per array: every transition asks the cost model
   again, and every neighbour list is rebuilt from the physical wires
   and the fault list.  The property below holds the production router
   to it state by state. *)
module Oracle = struct
  let inf = max_int / 4

  let neighbours (cgra : Cgra.t) i =
    if not (Cgra.pe_ok cgra i) then []
    else
      List.filter (fun j -> Cgra.pe_ok cgra j && Cgra.link_ok cgra i j) (Cgra.raw_neighbours cgra i)

  let reachable_in_one cgra i = if Cgra.pe_ok cgra i then i :: neighbours cgra i else []
  let idx pe in_rf = (2 * pe) + if in_rf then 1 else 0

  let explore ~ii cgra (cm : Route.cost_model) ~src_pe ~avail ~layers =
    let npe = Cgra.pe_count cgra in
    let rf_usable = ii > 1 in
    let hop_targets =
      Array.init npe (fun pe -> if ii > 1 then reachable_in_one cgra pe else neighbours cgra pe)
    in
    let nstates = npe * 2 in
    let cost = Array.init (layers + 1) (fun _ -> Array.make nstates inf) in
    let parent = Array.init (layers + 1) (fun _ -> Array.make nstates (-1)) in
    let time_of_layer l = avail + l in
    cost.(0).(idx src_pe false) <- 0;
    let intra_layer l =
      if rf_usable then begin
        let t = time_of_layer l in
        for pe = 0 to npe - 1 do
          let cf = cost.(l).(idx pe false) in
          if cf < inf then begin
            match cm.rf_cost pe t with
            | Some c when cf + c < cost.(l).(idx pe true) ->
                cost.(l).(idx pe true) <- cf + c;
                parent.(l).(idx pe true) <- (l * nstates) + idx pe false
            | _ -> ()
          end
        done
      end
    in
    intra_layer 0;
    for l = 0 to layers - 1 do
      let t = time_of_layer l in
      for pe = 0 to npe - 1 do
        let cf = cost.(l).(idx pe false) in
        if cf < inf then
          List.iter
            (fun q ->
              match cm.fu_cost q t with
              | Some c when cf + c < cost.(l + 1).(idx q false) ->
                  cost.(l + 1).(idx q false) <- cf + c;
                  parent.(l + 1).(idx q false) <- (l * nstates) + idx pe false
              | _ -> ())
            hop_targets.(pe);
        let cr = cost.(l).(idx pe true) in
        if cr < inf then begin
          (match cm.rf_cost pe (t + 1) with
          | Some c when cr + c < cost.(l + 1).(idx pe true) ->
              cost.(l + 1).(idx pe true) <- cr + c;
              parent.(l + 1).(idx pe true) <- (l * nstates) + idx pe true
          | _ -> ());
          match cm.fu_cost pe t with
          | Some c when cr + c < cost.(l + 1).(idx pe false) ->
              cost.(l + 1).(idx pe false) <- cr + c;
              parent.(l + 1).(idx pe false) <- (l * nstates) + idx pe true
          | _ -> ()
        end
      done;
      intra_layer (l + 1)
    done;
    (cost, parent)

  let goal_state cgra cost ~dst_pe ~layer =
    let best = ref inf and best_state = ref (-1) in
    for pe = 0 to Cgra.pe_count cgra - 1 do
      if pe = dst_pe || List.mem dst_pe (neighbours cgra pe) then begin
        let c = cost.(layer).(idx pe false) in
        if c < !best then begin
          best := c;
          best_state := idx pe false
        end
      end
    done;
    let c_rf = cost.(layer).(idx dst_pe true) in
    if c_rf < !best then begin
      best := c_rf;
      best_state := idx dst_pe true
    end;
    if !best >= inf then None else Some (!best_state, !best)

  let extract cgra (cost, parent) ~avail ~layers:max_layers ~dst_pe ~consume_at =
    let layers = consume_at - avail in
    if layers < 0 || layers > max_layers then None
    else begin
      let nstates = Cgra.pe_count cgra * 2 in
      match goal_state cgra cost ~dst_pe ~layer:layers with
      | None -> None
      | Some (goal, best) ->
          let seq = ref [] in
          let l = ref layers and s = ref goal in
          let continue_ = ref true in
          while !continue_ do
            seq := (!l, !s) :: !seq;
            let p = parent.(!l).(!s) in
            if p < 0 then continue_ := false
            else begin
              l := p / nstates;
              s := p mod nstates
            end
          done;
          let steps = ref [] in
          let rf_entry_time = ref None in
          let rec walk = function
            | (l1, s1) :: ((l2, s2) :: _ as rest) ->
                let t1 = avail + l1 in
                let pe1 = s1 / 2 and rf1 = s1 land 1 = 1 in
                let pe2 = s2 / 2 and rf2 = s2 land 1 = 1 in
                (if l1 = l2 then rf_entry_time := Some t1
                 else if rf1 && rf2 then ()
                 else if rf1 && not rf2 then begin
                   match !rf_entry_time with
                   | Some te ->
                       steps :=
                         Mapping.Hop { pe = pe1; time = t1 }
                         :: Mapping.Hold { pe = pe1; from_ = te - 1; until = t1 }
                         :: !steps;
                       rf_entry_time := None
                   | None -> steps := Mapping.Hop { pe = pe1; time = t1 } :: !steps
                 end
                 else steps := Mapping.Hop { pe = pe2; time = t1 } :: !steps);
                walk rest
            | [ (_, s_last) ] ->
                if s_last land 1 = 1 then begin
                  match !rf_entry_time with
                  | Some te ->
                      steps :=
                        Mapping.Hold { pe = s_last / 2; from_ = te - 1; until = consume_at }
                        :: !steps
                  | None -> ()
                end
            | [] -> ()
          in
          walk !seq;
          Some (List.rev !steps, best)
    end

  let route_edge cgra cm ~ii ~src:(src_pe, src_time) ~dst:(dst_pe, dst_time) ~lat ~dist =
    let avail = src_time + lat and consume_at = dst_time + (dist * ii) in
    if consume_at < avail then None
    else begin
      let layers = consume_at - avail in
      extract cgra (explore ~ii cgra cm ~src_pe ~avail ~layers) ~avail ~layers ~dst_pe ~consume_at
    end
end

(* A random array for the router properties: mesh, torus or diagonal,
   2x2 to 4x4, with up to three faults among one-way links, reduced RFs
   and (with [pe_down]) downed PEs. *)
let random_faulted_array ?(pe_down = false) rng =
  let rows = Rng.int_in rng 2 4 and cols = Rng.int_in rng 2 4 in
  let topology = Rng.choose_list rng Ocgra_arch.Topology.[ Mesh; Torus; Diagonal ] in
  let healthy = Cgra.uniform ~topology ~rf_size:(Rng.int_in rng 1 4) ~rows ~cols () in
  let npe = Cgra.pe_count healthy in
  let faults =
    List.init (Rng.int rng 4) (fun _ ->
        let pe = Rng.int rng npe in
        match if pe_down then Rng.int rng 3 else if Rng.bool rng then 0 else 1 with
        | 0 -> Ocgra_arch.Fault.Link_down (pe, Rng.choose_list rng (Cgra.raw_neighbours healthy pe))
        | 1 -> Ocgra_arch.Fault.Rf_reduced (pe, Rng.int_in rng 1 2)
        | _ -> Ocgra_arch.Fault.Pe_down pe)
  in
  Cgra.with_faults healthy faults

(* Random FU and RF occupancy at [ii], priced either strictly or with
   pathfinder-style negotiated prices. *)
let random_cost_model rng cgra ~ii =
  let npe = Cgra.pe_count cgra in
  let occ = Occupancy.create ~cgra ~npe ~ii () in
  for pe = 0 to npe - 1 do
    for slot = 0 to ii - 1 do
      if Rng.int rng 10 < 3 && Occupancy.fu_free occ ~pe ~time:slot then
        Occupancy.claim_fu occ ~pe ~time:slot (Occupancy.U_node 0);
      if Rng.int rng 10 < 3 then Occupancy.claim_hold occ ~pe ~from_:(slot - 1) ~until:slot
    done
  done;
  if Rng.bool rng then Route.strict cgra occ
  else begin
    let table () = Array.init (npe * ii) (fun _ -> Rng.int rng 3) in
    let fu_present = table () and fu_history = table () in
    let rf_present = table () and rf_history = table () in
    let key pe time = (pe * ii) + (((time mod ii) + ii) mod ii) in
    {
      Route.fu_cost =
        (fun pe time ->
          if not (Occupancy.fu_free occ ~pe ~time) then None
          else Some (4 + (30 * fu_present.(key pe time)) + (8 * fu_history.(key pe time))));
      rf_cost =
        (fun pe time ->
          let size = Cgra.effective_rf_size cgra pe in
          if size = 0 then None
          else begin
            let over =
              max 0 (Occupancy.rf_count occ ~pe ~time + rf_present.(key pe time) - size + 1)
            in
            Some (1 + (30 * over) + (4 * rf_history.(key pe time)))
          end);
    }
  end

(* One random search through [ws] against the oracle: the same cost
   and parent at every (layer <= layers, state), the same goal state
   for every consumer PE and layer, then the same [route_edge] answer
   (a second search on [ws]). *)
let search_matches_oracle rng ws cgra =
  let npe = Cgra.pe_count cgra and nstates = 2 * Cgra.pe_count cgra in
  let ii = Rng.int_in rng 1 4 in
  let cm = random_cost_model rng cgra ~ii in
  let src_pe = Rng.int rng npe and avail = Rng.int rng 6 and layers = Rng.int rng 10 in
  let field = Route.explore ws ~ii cm ~src_pe ~avail ~layers in
  let cost, parent = Oracle.explore ~ii cgra cm ~src_pe ~avail ~layers in
  let every_state p =
    List.for_all
      (fun l -> List.for_all (fun st -> p l st) (List.init nstates Fun.id))
      (List.init (layers + 1) Fun.id)
  in
  let same_field =
    every_state (fun l st ->
        field.cost.((l * nstates) + st) = cost.(l).(st)
        && field.parent.((l * nstates) + st) = parent.(l).(st))
  in
  let same_goals =
    List.for_all
      (fun dst_pe ->
        List.for_all
          (fun layer ->
            Route.goal_state field ~dst_pe ~layer = Oracle.goal_state cgra cost ~dst_pe ~layer)
          (List.init (layers + 1) Fun.id))
      (List.init npe Fun.id)
  in
  let src = (src_pe, avail - 1) and lat = 1 and dist = Rng.int rng 2 in
  let dst = (Rng.int rng npe, avail - (dist * ii) + Rng.int_in rng (-1) (layers + 1)) in
  same_field && same_goals
  && Route.route_edge ws cm ~ii ~src ~dst ~lat ~dist
     = Oracle.route_edge cgra cm ~ii ~src ~dst ~lat ~dist

(* The production router against the oracle on random arrays with
   one-way link and reduced-RF faults, random occupancy, II 1..4 and
   either cost model, one search in a fresh workspace. *)
let qcheck_router_matches_oracle =
  QCheck.Test.make ~name:"router equals the unmemoised oracle" ~count:400 QCheck.small_int
    (fun seed ->
      let rng = Rng.create (0x5EED + seed) in
      let cgra = random_faulted_array rng in
      search_matches_oracle rng (Route.workspace cgra) cgra)

(* A workspace carries rows and memo entries from one search to the
   next: a run of 6 to 10 searches of random II, cost model, source,
   start and depth through one workspace on one faulted array (downed
   PEs included) must each still equal the oracle, so no search reads
   what an earlier, deeper one left behind. *)
let qcheck_router_workspace_reuse =
  QCheck.Test.make ~name:"reused router workspace equals the oracle" ~count:150
    QCheck.small_int (fun seed ->
      let rng = Rng.create (0xC0FFEE + seed) in
      let cgra = random_faulted_array ~pe_down:true rng in
      let ws = Route.workspace cgra in
      List.for_all
        (fun _ -> search_matches_oracle rng ws cgra)
        (List.init (Rng.int_in rng 6 10) Fun.id))

(* router round-trip property: any route the strict router returns for
   a random two-op problem yields a checker-valid mapping *)
let qcheck_router_checker_roundtrip =
  QCheck.Test.make ~name:"strict routes always validate" ~count:300
    QCheck.(pair small_int (pair (int_range 1 4) (int_range 0 2)))
    (fun (seed, (ii, dist)) ->
      let rng = Rng.create ((seed * 31) + ii) in
      let g = Dfg.create () in
      let u = Dfg.input g "u" in
      let v = Dfg.add g Op.Not in
      Dfg.add_edge g ~src:u ~dst:v ~port:0 ~dist;
      let p = Problem.temporal ~dfg:g ~cgra:cgra44 ~max_ii:ii ~max_time:24 () in
      let pu = Rng.int rng 16 and pv = Rng.int rng 16 in
      let tu = Rng.int rng 6 in
      let tv = tu + Rng.int_in rng (-2) 8 in
      if tv < 0 || (pu = pv && tu mod ii = tv mod ii && (tu <> tv || u = v)) then true
      else begin
        let occ = Occupancy.create ~npe:16 ~ii () in
        Occupancy.claim_fu occ ~pe:pu ~time:tu (Occupancy.U_node u);
        if not (Occupancy.fu_free occ ~pe:pv ~time:tv) then true
        else begin
          Occupancy.claim_fu occ ~pe:pv ~time:tv (Occupancy.U_node v);
          let cm = Route.strict cgra44 occ in
          match
            Route.route_edge (Route.workspace cgra44) cm ~ii ~src:(pu, tu) ~dst:(pv, tv)
              ~lat:(Op.latency (Dfg.op g u)) ~dist
          with
          | None -> true (* infeasible is fine; wrong routes are not *)
          | Some (route, _) ->
              (* the route must also be claimable (no self-conflicts) *)
              let m = { Mapping.ii; binding = [| (pu, tu); (pv, tv) |]; routes = [| route |] } in
              (match Check.validate p m with
              | [] -> true
              | v ->
                  (* modulo self-conflicts of wrapping routes are allowed
                     router outcomes; everything else is a bug *)
                  List.for_all
                    (fun msg ->
                      let has sub =
                        let n = String.length msg and m = String.length sub in
                        let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
                        go 0
                      in
                      has "oversubscribed")
                    v)
        end
      end)

(* every mapping of every kernel yields contexts whose encoded words
   decode back exactly *)
let qcheck_context_roundtrip_mapped =
  QCheck.Test.make ~name:"mapped contexts roundtrip through bits" ~count:20
    QCheck.(int_range 0 1000)
    (fun seed ->
      let k = Kernels.find (if seed mod 2 = 0 then "fir4" else "matvec2") in
      let p = Problem.temporal ~init:k.Kernels.init ~dfg:k.Kernels.dfg ~cgra:cgra44 ~max_ii:16 () in
      match Ocgra_mappers.Constructive.map p (Rng.create seed) with
      | None, _, _ -> false
      | Some m, _, _ ->
          let build = Contexts.of_mapping p m in
          let words = Contexts.encode build in
          let ok = ref true in
          Array.iteri
            (fun c row ->
              Array.iteri
                (fun pe w ->
                  if Word_layout.decode_slot w <> build.Contexts.contexts.(c).(pe) then
                    ok := false)
                row)
            words;
          !ok)

(* ---------- checker catches corruption ---------- *)

let test_checker_accepts_valid () =
  let p, m = mapped_kernel (Kernels.fir4 ()) in
  Alcotest.(check (list string)) "valid" [] (Check.validate p m)

let corrupt_and_check mutate =
  let p, m = mapped_kernel (Kernels.fir4 ()) in
  let m' = mutate { m with Mapping.binding = Array.copy m.Mapping.binding; routes = Array.copy m.Mapping.routes } in
  Check.validate p m' <> []

let test_checker_catches_bad_pe () =
  checkb "bad pe" true
    (corrupt_and_check (fun m ->
         m.Mapping.binding.(0) <- (999, snd m.Mapping.binding.(0));
         m))

let test_checker_catches_moved_op () =
  checkb "moved op breaks dependences" true
    (corrupt_and_check (fun m ->
         (* move a node far away without rerouting *)
         let pe, t = m.Mapping.binding.(2) in
         m.Mapping.binding.(2) <- ((pe + 7) mod 16, t);
         m))

let test_checker_catches_dropped_route () =
  checkb "dropped route" true
    (corrupt_and_check (fun m ->
         (* blank out the longest route *)
         let longest = ref 0 and idx = ref (-1) in
         Array.iteri
           (fun i r ->
             if List.length r > !longest then begin
               longest := List.length r;
               idx := i
             end)
           m.Mapping.routes;
         if !idx >= 0 then m.Mapping.routes.(!idx) <- [];
         m))

let test_checker_catches_double_booking () =
  checkb "double booking" true
    (corrupt_and_check (fun m ->
         (* put node 1 exactly where node 0 sits *)
         m.Mapping.binding.(1) <- m.Mapping.binding.(0);
         m))

let test_checker_catches_wrong_ii () =
  checkb "ii out of bounds" true
    (corrupt_and_check (fun m -> { m with Mapping.ii = 0 }))

(* ---------- occupancy ---------- *)

let test_occupancy_claim_release () =
  let occ = Occupancy.create ~npe:4 ~ii:2 () in
  checkb "free" true (Occupancy.fu_free occ ~pe:1 ~time:5);
  Occupancy.claim_fu occ ~pe:1 ~time:5 (Occupancy.U_node 3);
  checkb "claimed (mod ii)" false (Occupancy.fu_free occ ~pe:1 ~time:7);
  Occupancy.release_fu occ ~pe:1 ~time:7;
  checkb "released" true (Occupancy.fu_free occ ~pe:1 ~time:5);
  Occupancy.claim_hold occ ~pe:2 ~from_:0 ~until:3;
  (* cycles 1,2,3 at ii=2: slot 1 is covered twice (cycles 1 and 3) *)
  checki "rf pressure wraps" 2 (Occupancy.rf_count occ ~pe:2 ~time:1);
  checki "rf pressure" 1 (Occupancy.rf_count occ ~pe:2 ~time:2);
  Occupancy.release_hold occ ~pe:2 ~from_:0 ~until:3;
  checki "rf released" 0 (Occupancy.rf_count occ ~pe:2 ~time:1)

let test_occupancy_double_claim_rejected () =
  let occ = Occupancy.create ~npe:2 ~ii:1 () in
  Occupancy.claim_fu occ ~pe:0 ~time:0 (Occupancy.U_node 1);
  Alcotest.check_raises "double claim"
    (Invalid_argument "Occupancy.claim_fu: slot already in use") (fun () ->
      Occupancy.claim_fu occ ~pe:0 ~time:3 (Occupancy.U_node 2))

(* ---------- cost ---------- *)

let test_cost_fields () =
  let p, m = mapped_kernel (Kernels.dot_product ()) in
  let c = Cost.of_mapping p m in
  checki "ops" (Dfg.node_count (Kernels.dot_product ()).dfg) c.Cost.ops;
  checkb "ii positive" true (c.Cost.ii >= 1);
  checkb "utilization in (0,1]" true (c.Cost.fu_utilization > 0.0 && c.Cost.fu_utilization <= 1.0)

(* ---------- contexts ---------- *)

let test_contexts_generation () =
  let p, m = mapped_kernel (Kernels.fir4 ()) in
  let build = Contexts.of_mapping p m in
  checki "one context per II cycle" m.Mapping.ii (Array.length build.Contexts.contexts);
  let words = Contexts.encode build in
  (* decode every word back and compare field-wise *)
  Array.iteri
    (fun c _ctx ->
      Array.iteri
        (fun pe word ->
          let slot = Word_layout.decode_slot word in
          checkb "roundtrip" true (slot = build.Contexts.contexts.(c).(pe)))
        words.(c))
    words;
  (* every scheduled op appears in some context *)
  let non_nop =
    Array.fold_left
      (fun acc ctx ->
        acc
        + Array.fold_left
            (fun acc (s : Ocgra_arch.Context.slot) -> if s.opcode <> 0 then acc + 1 else acc)
            0 ctx)
      0 build.Contexts.contexts
  in
  checkb "ops + routes present" true (non_nop >= Dfg.node_count (Kernels.fir4 ()).dfg)

(* A context word names an input port, so it cannot depend on which
   other links are down: a checker-valid constructive mapping on a 3x3
   mesh with three random one-way [Link_down]s, of a random library
   kernel, encodes to the words of the same mapping on the fault-free
   mesh. *)
let qcheck_contexts_ignore_link_faults =
  QCheck.Test.make ~name:"link faults keep the context words" ~count:60 QCheck.small_int
    (fun seed ->
      let rng = Rng.create (0x11D0 + seed) in
      let healthy = Cgra.uniform ~rows:3 ~cols:3 () in
      let faults =
        List.init 3 (fun _ ->
            let pe = Rng.int rng 9 in
            Ocgra_arch.Fault.Link_down (pe, Rng.choose_list rng (Cgra.raw_neighbours healthy pe)))
      in
      let k = Rng.choose_list rng (Kernels.all ()) in
      let problem cgra = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra () in
      let p = problem (Cgra.with_faults healthy faults) in
      match Ocgra_mappers.Constructive.map p rng with
      | Some m, _, _ when Check.validate p m = [] ->
          let words p = Contexts.encode (Contexts.of_mapping p m) in
          words p = words (problem healthy)
      | _ -> QCheck.assume_fail ())

(* ---------- taxonomy / registry ---------- *)

let test_taxonomy_columns () =
  let open Taxonomy in
  checkb "sa is metaheuristic" true (column_of_approach (Meta_local "SA") = Col_metaheuristics);
  checkb "sat is csp" true (column_of_approach Exact_sat = Col_csp)

let test_registry_covers_table1 () =
  (* at least one implemented mapper in every non-empty Table I cell
     family: heuristic/meta/ilp-bb/csp x spatial/temporal *)
  let has scope col =
    List.exists
      (fun (m : Mapper.t) ->
        m.scope = scope && Taxonomy.column_of_approach m.approach = col)
      Ocgra_mappers.Registry.all
  in
  checkb "spatial heuristics" true (has Taxonomy.Spatial_mapping Taxonomy.Col_heuristics);
  checkb "spatial meta" true (has Taxonomy.Spatial_mapping Taxonomy.Col_metaheuristics);
  checkb "spatial ilp" true (has Taxonomy.Spatial_mapping Taxonomy.Col_ilp_bb);
  checkb "temporal heuristics" true (has Taxonomy.Temporal_mapping Taxonomy.Col_heuristics);
  checkb "temporal meta" true (has Taxonomy.Temporal_mapping Taxonomy.Col_metaheuristics);
  checkb "temporal ilp/bb" true (has Taxonomy.Temporal_mapping Taxonomy.Col_ilp_bb);
  checkb "temporal csp" true (has Taxonomy.Temporal_mapping Taxonomy.Col_csp);
  checkb "binding heuristics" true (has Taxonomy.Binding_only Taxonomy.Col_heuristics);
  checkb "binding meta" true (has Taxonomy.Binding_only Taxonomy.Col_metaheuristics);
  checkb "scheduling heuristics" true (has Taxonomy.Scheduling_only Taxonomy.Col_heuristics);
  checkb "scheduling ilp" true (has Taxonomy.Scheduling_only Taxonomy.Col_ilp_bb);
  checki "18 mappers" 18 (List.length Ocgra_mappers.Registry.all)

let test_mapper_run_validates () =
  (* Mapper.run must demote invalid mappings: a fake mapper returning
     garbage gets reported as a failure with violations in the note *)
  let bogus =
    Mapper.make ~name:"bogus" ~citation:"-" ~scope:Taxonomy.Temporal_mapping
      ~approach:Taxonomy.Heuristic (fun p _rng _dl _obs ->
        let n = Dfg.node_count p.Problem.dfg in
        {
          Mapper.mapping =
            Some { Mapping.ii = 1; binding = Array.make n (0, 0); routes = Array.make (Ocgra_dfg.Dfg.edge_count p.Problem.dfg) [] };
          proven_optimal = true;
          attempts = 1;
          elapsed_s = 0.0;
          note = "";
          trail = [];
        })
  in
  let k = Kernels.dot_product () in
  let p = Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 () in
  let o = Mapper.run bogus p in
  checkb "demoted" true (o.Mapper.mapping = None);
  checkb "note explains" true (String.length o.Mapper.note > 0)

(* ---------- the candidate-II sweep ---------- *)

(* horner has MII 2 on the 4x4, so the default sweep starts there *)
let horner_problem ~max_ii =
  let k = Kernels.find "horner" in
  Problem.temporal ~init:k.init ~dfg:k.dfg ~cgra:cgra44 ~max_ii ()

let a_mapping = lazy (snd (mapped_kernel (Kernels.find "horner")))

(* a step that answers from [script] (by II, [Gave_up] when absent) and
   logs every II it is called with *)
let scripted script =
  let called = ref [] in
  let step ii =
    called := ii :: !called;
    match List.assoc_opt ii script with
    | Some `Map -> Mapper.Mapped (Lazy.force a_mapping)
    | Some `Refute -> Mapper.Refuted
    | None -> Mapper.Gave_up
  in
  (step, fun () -> List.rev !called)

let stop_name = function
  | Mapper.Found -> "found"
  | Mapper.All_refuted -> "all refuted"
  | Mapper.Some_gave_up -> "some gave up"
  | Mapper.Out_of_time -> "out of time"

let check_stop label want (s : Mapper.sweep) =
  Alcotest.(check string) label (stop_name want) (stop_name s.stop)

let test_sweep_range () =
  let p = horner_problem ~max_ii:5 in
  let step, called = scripted [] in
  let s = Mapper.sweep ~max_ii:5 Deadline.none p step in
  Alcotest.(check (list int)) "MII 2 up to max_ii" [ 2; 3; 4; 5 ] (called ());
  checkb "nothing found" true (s.found = None);
  let step, called = scripted [] in
  ignore (Mapper.sweep ~from:4 ~max_ii:6 Deadline.none p step);
  Alcotest.(check (list int)) "from 4 up to 6" [ 4; 5; 6 ] (called ());
  let step, called = scripted [] in
  ignore (Mapper.sweep ~from:7 ~max_ii:6 Deadline.none p step);
  Alcotest.(check (list int)) "from past max_ii: no step" [] (called ())

let test_sweep_attempts () =
  let p = horner_problem ~max_ii:8 in
  let step, called = scripted [ (2, `Refute); (4, `Map) ] in
  let s = Mapper.sweep ~max_ii:8 Deadline.none p step in
  checki "three IIs stepped" 3 s.steps;
  Alcotest.(check (list int)) "stops at the mapping" [ 2; 3; 4 ] (called ());
  let step, _ = scripted [] in
  checki "every II stepped" 7 (Mapper.sweep ~max_ii:8 Deadline.none p step).steps

let test_sweep_proof_rule () =
  let p = horner_problem ~max_ii:8 in
  let run script = Mapper.sweep ~max_ii:8 Deadline.none p (fst (scripted script)) in
  checkb "mapped at from: proven" true (run [ (2, `Map) ]).proven;
  checkb "refuted prefix: proven" true (run [ (2, `Refute); (3, `Refute); (4, `Map) ]).proven;
  checkb "gave-up prefix: not proven" false (run [ (3, `Map) ]).proven;
  checkb "one gave up among refutations: not proven" false
    (run [ (2, `Refute); (3, `Refute); (5, `Map) ]).proven;
  checkb "no mapping: not proven" false (run [ (2, `Refute) ]).proven

let test_sweep_deadline () =
  let p = horner_problem ~max_ii:8 in
  let stop = Atomic.make false in
  let dl = Deadline.with_cancel Deadline.none (fun () -> Atomic.get stop) in
  let step, called = scripted [] in
  let s =
    Mapper.sweep ~max_ii:8 dl p (fun ii ->
        if ii = 3 then Atomic.set stop true;
        step ii)
  in
  Alcotest.(check (list int)) "no step after expiry" [ 2; 3 ] (called ());
  checki "two stepped" 2 s.steps;
  check_stop "stopped by the clock" Mapper.Out_of_time s;
  let step, called = scripted [ (2, `Map) ] in
  let s = Mapper.sweep ~max_ii:8 (Deadline.after ~seconds:0.0) p step in
  Alcotest.(check (list int)) "expired before the first step" [] (called ());
  check_stop "out of time at once" Mapper.Out_of_time s

let test_sweep_stop_reasons () =
  let p = horner_problem ~max_ii:4 in
  let run ?(dl = Deadline.none) ?from script =
    Mapper.sweep ?from ~max_ii:4 dl p (fst (scripted script))
  in
  check_stop "found" Mapper.Found (run [ (3, `Map) ]);
  check_stop "all refuted" Mapper.All_refuted (run [ (2, `Refute); (3, `Refute); (4, `Refute) ]);
  check_stop "some gave up" Mapper.Some_gave_up (run [ (2, `Refute); (4, `Refute) ]);
  check_stop "out of time" Mapper.Out_of_time (run ~dl:(Deadline.after ~seconds:0.0) []);
  (* max_ii is tested before the clock *)
  check_stop "past max_ii beats the clock" Mapper.All_refuted
    (run ~dl:(Deadline.after ~seconds:0.0) ~from:5 [])

let test_tries () =
  let m = Lazy.force a_mapping in
  let run ?(dl = Deadline.none) n answer =
    let seen = ref [] in
    let r =
      Mapper.tries n dl (fun i ->
          seen := i :: !seen;
          answer i)
    in
    (r, List.rev !seen)
  in
  let r, seen = run 5 (fun i -> if i = 2 then Mapper.Mapped m else Mapper.Gave_up) in
  checkb "first mapping returned" true (r = Some m);
  Alcotest.(check (list int)) "indices 0.. up to the mapping" [ 0; 1; 2 ] seen;
  let r, seen = run 3 (fun _ -> Mapper.Gave_up) in
  checkb "n spent" true (r = None);
  Alcotest.(check (list int)) "n tries" [ 0; 1; 2 ] seen;
  let _, seen = run 5 (fun i -> if i = 1 then Mapper.Refuted else Mapper.Gave_up) in
  Alcotest.(check (list int)) "Refuted ends the tries" [ 0; 1 ] seen;
  let _, seen = run ~dl:(Deadline.after ~seconds:0.0) 5 (fun _ -> Mapper.Mapped m) in
  Alcotest.(check (list int)) "expired: no try" [] seen

let () =
  Alcotest.run "core"
    [
      ( "mii",
        [
          Alcotest.test_case "bounds" `Quick test_mii;
          Alcotest.test_case "heterogeneous" `Quick test_mii_heterogeneous;
        ] );
      ( "router",
        [
          Alcotest.test_case "direct adjacency" `Quick test_router_direct_adjacency;
          Alcotest.test_case "occupancy respected" `Quick test_router_respects_occupancy;
          Alcotest.test_case "uses holds" `Quick test_router_uses_hold;
          Alcotest.test_case "no backward time" `Quick test_router_no_backward_time;
          QCheck_alcotest.to_alcotest qcheck_router_checker_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_router_matches_oracle;
          QCheck_alcotest.to_alcotest qcheck_router_workspace_reuse;
          QCheck_alcotest.to_alcotest qcheck_context_roundtrip_mapped;
        ] );
      ( "checker",
        [
          Alcotest.test_case "accepts valid" `Quick test_checker_accepts_valid;
          Alcotest.test_case "bad pe" `Quick test_checker_catches_bad_pe;
          Alcotest.test_case "moved op" `Quick test_checker_catches_moved_op;
          Alcotest.test_case "dropped route" `Quick test_checker_catches_dropped_route;
          Alcotest.test_case "double booking" `Quick test_checker_catches_double_booking;
          Alcotest.test_case "bad ii" `Quick test_checker_catches_wrong_ii;
        ] );
      ( "occupancy",
        [
          Alcotest.test_case "claim/release" `Quick test_occupancy_claim_release;
          Alcotest.test_case "double claim rejected" `Quick test_occupancy_double_claim_rejected;
        ] );
      ("cost", [ Alcotest.test_case "fields" `Quick test_cost_fields ]);
      ( "contexts",
        [
          Alcotest.test_case "generation + roundtrip" `Quick test_contexts_generation;
          QCheck_alcotest.to_alcotest qcheck_contexts_ignore_link_faults;
        ] );
      ( "taxonomy",
        [
          Alcotest.test_case "columns" `Quick test_taxonomy_columns;
          Alcotest.test_case "registry coverage" `Quick test_registry_covers_table1;
          Alcotest.test_case "run validates" `Quick test_mapper_run_validates;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "from to max_ii" `Quick test_sweep_range;
          Alcotest.test_case "attempt count" `Quick test_sweep_attempts;
          Alcotest.test_case "proof rule" `Quick test_sweep_proof_rule;
          Alcotest.test_case "deadline" `Quick test_sweep_deadline;
          Alcotest.test_case "stop reasons" `Quick test_sweep_stop_reasons;
          Alcotest.test_case "tries" `Quick test_tries;
        ] );
    ]
