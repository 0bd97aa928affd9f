(* Mapping as a service: batch classification against the canonical-form
   cache, certified repair for grown fault masks, supervised parallel
   cold maps for the rest.

   A batch runs in four phases, sequential-parallel-sequential, which
   is what makes the whole service deterministic in everything
   but wall-clock fields:

   phase 1 (sequential, request order): canonicalize, look up, and
     resolve hits and repair hits inline.  Misses are queued; a miss
     isomorphic to an earlier queued miss (same arch signature, same
     canonical mask) coalesces onto it instead of mapping twice.

   phase 2 (parallel): the distinct misses drain through one
     [Supervise.run] over the domain pool, which retries a raising
     task [config.retries] extra times.  Each task is one sequential
     [Harness.run] over the chain with [~retries:0] (one try per tier)
     — so its outcome does not depend on scheduling — writing into a
     private [Ctx.fork].

   phase 3 (sequential, miss order then request order): fold the fork
     sinks back in miss order, insert results into the cache (evicting
     deterministically), resolve coalesced duplicates from the
     just-inserted entries.

   phase 4 (sequential, request order): count each request's path
     once, record its latency histogram and emit one [svc.request]
     event per request.  Events never carry latencies; the batch's
     tallies fold into [t.counts] and the caller's metrics at the
     end. *)

module Dfg = Ocgra_dfg.Dfg
module Fault = Ocgra_arch.Fault
module Cgra = Ocgra_arch.Cgra
module Problem = Ocgra_core.Problem
module Mapping = Ocgra_core.Mapping
module Mapper = Ocgra_core.Mapper
module Check = Ocgra_core.Check
module Repair = Ocgra_core.Repair
module Deadline = Ocgra_core.Deadline
module Ctx = Ocgra_obs.Ctx
module Events = Ocgra_obs.Events
module Metrics = Ocgra_obs.Metrics
module Supervise = Ocgra_par.Supervise

type config = {
  capacity : int;
  chain : Mapper.t list;
  workers : int;
  deadline_s : float option;
  seed : int;
  retries : int;
}

let default_config =
  {
    capacity = 256;
    chain = [];
    workers = 1;
    deadline_s = None;
    seed = 42;
    retries = Supervise.default_retries;
  }

type request = {
  id : string;
  dfg : Dfg.t;
  cgra : Cgra.t;
  spatial : bool;
  max_ii : int option;
}

type served =
  | Hit
  | Iso_hit
  | Repair_hit of Mapper.rung
  | Miss
  | Rejected

let served_to_string = function
  | Hit -> "hit"
  | Iso_hit -> "iso-hit"
  | Repair_hit _ -> "repair-hit"
  | Miss -> "miss"
  | Rejected -> "rejected"

type response = {
  id : string;
  served : served;
  mapping : Mapping.t option;
  ii : int option;
  elapsed_s : float;
  note : string;
}

type stats = {
  requests : int;
  hits : int;
  iso_hits : int;
  repair_hits : int;
  misses : int;
  rejections : int;
  coalesced : int;
  demotions : int;
  entries : int;
  evictions : int;
}

(* Every [svc.*] tally is counted once, into [counts]: a private,
   always-live metrics store, so [stats] works whether or not the
   caller's [obs] records anything.  Each batch counts into a fresh
   store that is folded into [counts] and into the caller's metrics
   sink at the end of the batch. *)
type t = {
  config : config;
  cache : Cache.t;
  obs : Ctx.t;
  counts : Metrics.t;
}

let create ?(obs = Ctx.off) config =
  if config.chain = [] then invalid_arg "Svc.create: empty mapper chain";
  if config.retries < 0 then invalid_arg "Svc.create: negative retry count";
  { config; cache = Cache.create ~capacity:config.capacity; obs; counts = Metrics.create () }

let stats t =
  let count name = Metrics.get t.counts ("svc." ^ name) in
  {
    requests = count "requests";
    hits = count "hits";
    iso_hits = count "iso_hits";
    repair_hits = count "repair_hits";
    misses = count "misses";
    rejections = count "rejections";
    coalesced = count "coalesced";
    demotions = count "demotions";
    entries = Cache.size t.cache;
    evictions = Cache.evictions t.cache;
  }

let is_identity w =
  let ok = ref true in
  Array.iteri (fun i j -> if i <> j then ok := false) w;
  !ok

let invert w =
  let inv = Array.make (Array.length w) 0 in
  Array.iteri (fun i j -> inv.(j) <- i) w;
  inv

(* Rewrite a mapping of [src_dfg] into [dst_dfg]'s numbering under the
   node bijection [witness].  Bindings permute directly.  Routes are
   keyed by their consumer slot: [Dfg.validate] guarantees one producer
   per (dst, port), so the pair identifies the matching source edge;
   the hops inside a route are PE/cycle coordinates and survive a node
   renaming unchanged. *)
let permute_mapping ~src_dfg ~dst_dfg ~witness (m : Mapping.t) =
  let n = Dfg.node_count src_dfg in
  let binding = Array.make n (0, 0) in
  Array.iteri (fun i j -> binding.(j) <- m.Mapping.binding.(i)) witness;
  let by_slot = Hashtbl.create (max 16 (Dfg.edge_count src_dfg)) in
  List.iteri
    (fun idx (e : Dfg.edge) -> Hashtbl.replace by_slot (e.Dfg.dst, e.Dfg.port) idx)
    (Dfg.edges src_dfg);
  let inv = invert witness in
  let routes =
    Array.of_list
      (List.map
         (fun (e : Dfg.edge) ->
           match Hashtbl.find_opt by_slot (inv.(e.Dfg.dst), e.Dfg.port) with
           | Some idx -> m.Mapping.routes.(idx)
           | None -> [] (* impossible under a true witness; validate rejects *))
         (Dfg.edges dst_dfg))
  in
  { m with Mapping.binding; routes }

let mk_problem req =
  if req.spatial then Problem.spatial ~dfg:req.dfg ~cgra:req.cgra ()
  else Problem.temporal ?max_ii:req.max_ii ~dfg:req.dfg ~cgra:req.cgra ()

(* A cache entry's mapping in [req]'s numbering, via the witness [w]. *)
let entry_mapping (entry : Cache.entry) w (req : request) =
  permute_mapping ~src_dfg:(Canon.dfg entry.Cache.canon) ~dst_dfg:req.dfg ~witness:w
    entry.Cache.mapping

(* Serve [req] from a cache entry: permute its mapping onto the request
   and re-certify it there.  A mapping the validator rejects (stale
   bound, collision artefact) is a demotion and is never returned. *)
let certify tally entry w req problem =
  let m = entry_mapping entry w req in
  match Check.validate problem m with
  | [] -> Some ((if is_identity w then Hit else Iso_hit), m)
  | _ :: _ ->
      Metrics.incr tally "svc.demotions";
      None

(* The counter and latency histogram of each serving path. *)
let path_metrics = function
  | Hit -> ("svc.hits", Some "svc.hit_us")
  | Iso_hit -> ("svc.iso_hits", Some "svc.hit_us")
  | Repair_hit _ -> ("svc.repair_hits", Some "svc.repair_us")
  | Miss -> ("svc.misses", Some "svc.miss_us")
  | Rejected -> ("svc.rejections", None)

(* One queued cold map: the first request of its (arch, mask, iso
   class) triple in this batch; later equivalents coalesce onto it. *)
type pending = {
  p_index : int; (* position in the miss queue *)
  p_req_index : int;
  p_key : string;
  p_canon : Canon.t;
  p_mask : Fault.t list;
  p_problem : Problem.t;
  p_obs : Ctx.t; (* private fork, absorbed in miss order *)
}

let submit_batch t reqs =
  let reqs : request array = Array.of_list reqs in
  let n = Array.length reqs in
  let tally = Metrics.create () in
  let responses : response option array = Array.make n None in
  let respond i served mapping elapsed_s note =
    responses.(i) <-
      Some
        {
          id = reqs.(i).id;
          served;
          mapping;
          ii = Option.map (fun (m : Mapping.t) -> m.Mapping.ii) mapping;
          elapsed_s;
          note;
        }
  in
  let pendings = ref [] in
  let n_pending = ref 0 in
  let dups = ref [] in
  (* ---- phase 1: sequential classification ---- *)
  Array.iteri
    (fun i (req : request) ->
      let t0 = Deadline.now () in
      let answered =
        match Dfg.validate req.dfg with
        | _ :: _ as errs -> Some (Rejected, None, "invalid DFG: " ^ String.concat "; " errs)
        | [] -> (
            let canon = Canon.of_dfg req.dfg in
            let problem = mk_problem req in
            let key = Problem.signature problem in
            let mask = Cgra.faults req.cgra in
            let queue_miss () =
              if not (Problem.mappable problem) then
                Some (Rejected, None, "unmappable: some op has no capable live PE")
              else begin
                (match
                   List.find_opt
                     (fun p ->
                       p.p_key = key && p.p_mask = mask
                       && Canon.witness p.p_canon canon <> None)
                     !pendings
                 with
                | Some p -> dups := (p, i, canon, problem) :: !dups
                | None ->
                    let p =
                      {
                        p_index = !n_pending;
                        p_req_index = i;
                        p_key = key;
                        p_canon = canon;
                        p_mask = mask;
                        p_problem = problem;
                        p_obs = Ctx.fork t.obs;
                      }
                    in
                    incr n_pending;
                    pendings := p :: !pendings);
                None
              end
            in
            match Cache.lookup t.cache ~key canon with
            | None -> queue_miss ()
            | Some (entry, w) ->
                if Fault.subset mask entry.Cache.mask then
                  (* cached mapping avoids a superset of the request's
                     dead resources: permute and re-certify on the
                     request; a demoted mapping is remapped cold *)
                  match certify tally entry w req problem with
                  | Some (served, m) -> Some (served, Some m, "served from cache")
                  | None -> queue_miss ()
                else if Fault.subset entry.Cache.mask mask then begin
                  (* the mask grew: climb the certified repair ladder from
                     the cached mapping instead of mapping cold *)
                  let m_prev = entry_mapping entry w req in
                  let r =
                    Repair.repair ~seed:t.config.seed
                      ~deadline:(Deadline.of_seconds t.config.deadline_s)
                      ~obs:t.obs ~fallback:[] ~workers:1 problem m_prev
                  in
                  match (r.Repair.mapping, r.Repair.rung) with
                  | Some m, Some rung ->
                      (* fold the repaired mapping back into representative
                         coordinates so the next request at this mask hits *)
                      entry.Cache.mapping <-
                        permute_mapping ~src_dfg:req.dfg
                          ~dst_dfg:(Canon.dfg entry.Cache.canon)
                          ~witness:(invert w) m;
                      entry.Cache.mask <- mask;
                      Some (Repair_hit rung, Some m, r.Repair.note)
                  | _ -> queue_miss ()
                end
                else
                  (* incomparable masks: a repair could not certify and a
                     cached answer could be wrong — cold map and replace *)
                  queue_miss ())
      in
      Option.iter
        (fun (served, mapping, note) -> respond i served mapping (Deadline.now () -. t0) note)
        answered)
    reqs;
  let pendings = Array.of_list (List.rev !pendings) in
  (* ---- phase 2: supervised parallel drain of the distinct misses ---- *)
  let results =
    if Array.length pendings = 0 then [||]
    else begin
      let tasks =
        Array.map
          (fun p () ->
            let t0 = Deadline.now () in
            let o =
              Mapper.Harness.run ~seed:t.config.seed ?deadline_s:t.config.deadline_s
                ~retries:0 ~obs:p.p_obs t.config.chain p.p_problem
            in
            (o, Deadline.now () -. t0))
          pendings
      in
      let summary =
        Supervise.run ~workers:t.config.workers ~obs:t.obs ~retries:t.config.retries tasks
      in
      Array.map
        (function Supervise.Ok r -> Some r | Supervise.Failed _ -> None)
        summary.Supervise.outcomes
    end
  in
  (* fork sinks fold back in miss order — a fixed order, so the merged
     event log is identical on every worker count *)
  Array.iter (fun p -> Ctx.absorb ~into:t.obs p.p_obs) pendings;
  (* ---- phase 3: sequential integration ---- *)
  let inserted : Cache.entry option array = Array.make (Array.length pendings) None in
  Array.iteri
    (fun j p ->
      let i = p.p_req_index in
      match results.(j) with
      | Some (o, dt) -> (
          match o.Mapper.mapping with
          | Some m ->
              let entry, victim =
                Cache.insert t.cache ~key:p.p_key p.p_canon m ~mask:p.p_mask
              in
              inserted.(j) <- Some entry;
              (match victim with
              | Some v ->
                  Ctx.event t.obs ~cat:"svc" "svc.evict"
                    [
                      ("fp", Events.Str (Printf.sprintf "%x" (Canon.fingerprint v.Cache.canon)));
                      ("hits", Events.Int v.Cache.hits);
                    ]
              | None -> ());
              respond i Miss (Some m) dt o.Mapper.note
          | None -> respond i Rejected None dt o.Mapper.note)
      | None -> respond i Rejected None 0.0 "cold map quarantined by the supervisor")
    pendings;
  (* coalesced duplicates: serve from the primary's fresh entry, in
     request order *)
  List.iter
    (fun (p, i, canon, problem) ->
      let t0 = Deadline.now () in
      Metrics.incr tally "svc.coalesced";
      let served, mapping, note =
        match inserted.(p.p_index) with
        | None -> (Rejected, None, "coalesced onto a failed cold map")
        | Some entry -> (
            match Canon.witness entry.Cache.canon canon with
            | None -> (Rejected, None, "coalescing witness vanished")
            | Some w -> (
                match certify tally entry w reqs.(i) problem with
                | Some (served, m) -> (served, Some m, "served from this batch's cold map")
                | None -> (Rejected, None, "coalesced mapping failed re-certification")))
      in
      respond i served mapping (Deadline.now () -. t0) note)
    (List.rev !dups);
  (* ---- phase 4: accounting + post-hoc events, request order ---- *)
  (* every request was resolved by one of the phases above *)
  Array.iteri
    (fun i r ->
      if Option.is_none r then respond i Rejected None 0.0 "internal: request fell through")
    responses;
  let out = Array.map Option.get responses in
  Array.iteri
    (fun i r ->
      let counter, hist = path_metrics r.served in
      Metrics.incr tally counter;
      Option.iter (fun h -> Ctx.observe t.obs h (int_of_float (r.elapsed_s *. 1e6))) hist;
      Ctx.event t.obs ~cat:"svc" "svc.request"
        [
          ("i", Events.Int i);
          ("id", Events.Str r.id);
          ("served", Events.Str (served_to_string r.served));
          ( "rung",
            Events.Str
              (match r.served with
              | Repair_hit rung -> Mapper.rung_to_string rung
              | _ -> "") );
          ("ii", Events.Int (match r.ii with Some ii -> ii | None -> -1));
        ])
    out;
  Metrics.add tally "svc.requests" n;
  Metrics.incr tally "svc.batches";
  Metrics.merge ~into:t.counts tally;
  Metrics.merge ~into:(Ctx.metrics t.obs) tally;
  Ctx.event t.obs ~cat:"svc" "svc.batch"
    [
      ("requests", Events.Int n);
      ("cold", Events.Int (Array.length pendings));
      ("entries", Events.Int (Cache.size t.cache));
    ];
  Array.to_list out
