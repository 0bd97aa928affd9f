(* Resource-constrained modulo list scheduling (no placement): the
   classic decoupled first phase of the "Scheduling" row of Table I.
   Resources are counted per functional class and per modulo slot;
   operations are scheduled in priority (height) order at their
   earliest feasible cycle. *)

open Ocgra_dfg
open Ocgra_core
module Rng = Ocgra_util.Rng

(* Returns times per node, or None.  The schedule horizon is the
   critical path plus two IIs plus eight cycles of slack. *)
let modulo_list_schedule (p : Problem.t) rng ~ii =
  let dfg = p.dfg and cgra = p.cgra in
  let n = Dfg.node_count dfg in
  let horizon = Dfg.critical_path dfg + (2 * ii) + 8 in
  (* capacity per functional class per slot *)
  let classes = [ Op.F_alu; Op.F_mul; Op.F_mem; Op.F_io ] in
  let capacity cls =
    List.length
      (List.filter
         (fun pe ->
           Ocgra_arch.Cgra.pe_ok cgra pe
           && Ocgra_arch.Pe.has_class (Ocgra_arch.Cgra.pe cgra pe) cls)
         (List.init (Ocgra_arch.Cgra.pe_count cgra) Fun.id))
  in
  let cap = List.map (fun c -> (c, capacity c)) classes in
  let used = Hashtbl.create 32 in
  (* (class, slot) -> count *)
  let order = Constructive.topo_order_by_height rng dfg in
  let times = Array.make n (-1) in
  let edges = Dfg.edges dfg in
  let ok =
    List.for_all
      (fun v ->
        let cls = Op.func_class (Dfg.op dfg v) in
        let class_cap = try List.assoc cls cap with Not_found -> 0 in
        if class_cap = 0 then false
        else begin
          let est =
            List.fold_left
              (fun acc (e : Dfg.edge) ->
                if e.dst = v && e.src <> v && times.(e.src) >= 0 then
                  max acc (times.(e.src) + Op.latency (Dfg.op dfg e.src) - (e.dist * ii))
                else acc)
              0 edges
          in
          let rec find t =
            if t >= horizon then None
            else begin
              let slot = t mod ii in
              let u = Option.value ~default:0 (Hashtbl.find_opt used (cls, slot)) in
              if u < class_cap then Some t else find (t + 1)
            end
          in
          match find (max 0 est) with
          | Some t ->
              times.(v) <- t;
              let slot = t mod ii in
              Hashtbl.replace used (cls, slot)
                (1 + Option.value ~default:0 (Hashtbl.find_opt used (cls, slot)));
              true
          | None -> false
        end)
      order
  in
  (* self-edges: check recurrence feasibility *)
  let self_ok =
    List.for_all
      (fun (e : Dfg.edge) ->
        e.src <> e.dst || Op.latency (Dfg.op dfg e.src) <= e.dist * ii)
      edges
  in
  if ok && self_ok then Some times else None

(* The schedule-then-bind sweep shared by the decoupled mappers: per
   candidate II, up to [restarts] tries of list schedule + [bind].  A
   schedule that fails at an II ends that II's tries (retrying the same
   list scheduler is pointless), which the sweep still counts as given
   up, never refuted.  Every try bumps [counter]; each bind runs in a
   "<tag>:ii=N" span of the counter's category (its prefix up to the
   first dot). *)
let with_schedule ~obs ~tag ~counter ~note (p : Problem.t) rng ~restarts ~dl bind =
  match p.kind with
  | Problem.Spatial -> Mapper.outcome ~attempts:0 ~note None
  | Problem.Temporal { max_ii; _ } ->
      let cat = List.hd (String.split_on_char '.' counter) in
      let attempts = ref 0 in
      let try_ii ii _ =
        incr attempts;
        Ocgra_obs.Ctx.incr obs counter;
        match modulo_list_schedule p rng ~ii with
        | None -> Mapper.Refuted
        | Some times ->
            Mapper.mapped_or_gave_up
              (Ocgra_obs.Ctx.span obs ~cat (Printf.sprintf "%s:ii=%d" tag ii) (fun () ->
                   bind ~ii times))
      in
      let s =
        Mapper.sweep ~max_ii dl p (fun ii ->
            Mapper.mapped_or_gave_up (Mapper.tries restarts dl (try_ii ii)))
      in
      Mapper.outcome ~proven:s.proven ~attempts:!attempts s.found ~note
