(* DMR/TMR hardening transforms.

   Hardening rewrites a kernel into a modular-redundant form *at the
   DFG level*, so the result is just another DFG: every existing
   mapper, the validator and the simulator handle it unchanged.  The
   compute sphere — everything except the side-effect sinks (Output,
   Store) — is replicated K times (K = 2 for DMR, 3 for TMR); each
   replica carries its own copy of every edge, including loop-carried
   recurrences, so replicas share no intermediate state and a fault in
   one cannot contaminate another.  Sinks stay single: at every edge
   into a sink, the replicas are fused by a guard node —

   - TMR: a [Vote] node (bitwise majority of the three replicas), which
     *masks* a corrupted replica;
   - DMR: a [Cmp] node (passes replica 0, flags a mismatch), which
     *detects* corruption without being able to correct it.

   Loop-carried distances stay on the replica -> guard edges; the guard
   feeds its sink at distance 0, so the guarded value is read at
   exactly the iteration the original edge named.

   Node identities change, so the transform also returns [origin]: a
   map from new node id to the original node it replicates (guards map
   to the value they guard).  Problem-level init functions are
   composed through it.

   Ordering caveat: replicas are structurally identical by design, so
   running [Transform.cse] *after* hardening would merge them and undo
   the redundancy.  Harden last. *)

type mode = No_harden | Dmr | Tmr

let mode_to_string = function No_harden -> "none" | Dmr -> "dmr" | Tmr -> "tmr"

let copies = function No_harden -> 1 | Dmr -> 2 | Tmr -> 3

(* Side-effect sinks stay single; everything else is replicated. *)
let is_sink op = match op with Op.Output _ | Op.Store _ -> true | _ -> false

let replicate mode t =
  let k = copies mode in
  let n = Dfg.node_count t in
  let out = Dfg.create () in
  (* copy_id.(orig).(c) = id of replica c (sinks: same id for all c) *)
  let copy_id = Array.make_matrix n k 0 in
  let origin_rev = ref [] in
  let add_tracked ~orig op name =
    let id = Dfg.add ~name out op in
    origin_rev := orig :: !origin_rev;
    id
  in
  Dfg.iter_nodes
    (fun nd ->
      if is_sink nd.Dfg.op then begin
        let id = add_tracked ~orig:nd.Dfg.id nd.Dfg.op nd.Dfg.name in
        for c = 0 to k - 1 do
          copy_id.(nd.Dfg.id).(c) <- id
        done
      end
      else
        for c = 0 to k - 1 do
          let name =
            if c = 0 then nd.Dfg.name else Printf.sprintf "%s#%d" nd.Dfg.name c
          in
          copy_id.(nd.Dfg.id).(c) <- add_tracked ~orig:nd.Dfg.id nd.Dfg.op name
        done)
    t;
  (* one guard per (source, distance) pair feeding any sink *)
  let guards : (int * int, int) Hashtbl.t = Hashtbl.create 8 in
  let guard_of src dist =
    match Hashtbl.find_opt guards (src, dist) with
    | Some g -> g
    | None ->
        let op = match mode with Tmr -> Op.Vote | _ -> Op.Cmp in
        let name = Printf.sprintf "%s%s" (Op.to_string op) (Dfg.name t src) in
        let g = add_tracked ~orig:src op name in
        for c = 0 to Op.arity op - 1 do
          Dfg.add_edge out ~src:copy_id.(src).(c) ~dst:g ~port:c ~dist
        done;
        Hashtbl.replace guards (src, dist) g;
        g
  in
  Dfg.iter_edges
    (fun e ->
      if is_sink (Dfg.op t e.Dfg.dst) then
        if is_sink (Dfg.op t e.Dfg.src) then
          (* sink-to-sink values are single on both ends: wire through *)
          Dfg.add_edge out ~src:copy_id.(e.Dfg.src).(0) ~dst:copy_id.(e.Dfg.dst).(0)
            ~port:e.Dfg.port ~dist:e.Dfg.dist
        else
          let g = guard_of e.Dfg.src e.Dfg.dist in
          Dfg.add_edge out ~src:g ~dst:copy_id.(e.Dfg.dst).(0) ~port:e.Dfg.port ~dist:0
      else
        for c = 0 to k - 1 do
          Dfg.add_edge out ~src:copy_id.(e.Dfg.src).(c) ~dst:copy_id.(e.Dfg.dst).(c)
            ~port:e.Dfg.port ~dist:e.Dfg.dist
        done)
    t;
  let origin = Array.of_list (List.rev !origin_rev) in
  (out, fun id -> origin.(id))

let apply mode t =
  match mode with
  | No_harden -> (t, fun id -> id)
  | Dmr | Tmr -> replicate mode t
