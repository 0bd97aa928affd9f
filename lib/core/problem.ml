(* The unified mapping problem formulation (Section II.C of the paper):

   "bind in place and schedule in time operations of the application on
   the CGRA while guaranteeing the dependencies and in a short time,
   such that the application executes as fast as possible."

   A spatial problem asks for a one-op-per-PE pipeline (II = 1, each PE
   used by at most one operation or routing hop).  A temporal problem
   asks for a modulo schedule: operations share PEs in time, and the
   schedule repeats every II cycles. *)

open Ocgra_dfg
open Ocgra_arch

type kind =
  | Spatial (* II = 1 pipeline; every FU used at most once *)
  | Temporal of { max_ii : int; max_time : int }

type t = {
  dfg : Dfg.t;
  cgra : Cgra.t;
  kind : kind;
  init : int -> int; (* initial (iteration -1) value of each node, for recurrences *)
}

let make ?(init = fun (_ : int) -> 0) ~dfg ~cgra kind = { dfg; cgra; kind; init }

let spatial ?init ~dfg ~cgra () = make ?init ~dfg ~cgra Spatial

let temporal ?init ?max_ii ?max_time ~dfg ~cgra () =
  let max_ii = match max_ii with Some i -> i | None -> max 1 (Dfg.node_count dfg) in
  let max_time =
    match max_time with Some t -> t | None -> (4 * Dfg.critical_path dfg) + 16
  in
  make ?init ~dfg ~cgra (Temporal { max_ii; max_time })

let is_spatial t = t.kind = Spatial

let max_ii t = match t.kind with Spatial -> 1 | Temporal { max_ii; _ } -> max_ii

let max_time t =
  match t.kind with
  | Spatial -> (2 * Dfg.node_count t.dfg) + Dfg.critical_path t.dfg + 4
  | Temporal { max_time; _ } -> max_time

(* Every op has at least one capable (non-faulted) PE.  Mappers whose
   candidate generation assumes non-empty capability sets are guarded
   by this in [Mapper.run], so a heavily degraded array fails cleanly
   instead of raising. *)
let mappable t =
  Dfg.fold_nodes
    (fun nd acc -> acc && Cgra.capable_pes t.cgra nd.Dfg.op <> [])
    t.dfg true

(* Everything about the problem that is NOT the DFG and NOT the fault
   mask: the fabric (dimensions, topology, per-PE capability classes,
   RF depth, immediate field) and the problem kind with its bounds.
   Two problems with equal signatures accept the same mappings up to
   the DFG and the degradation — which is exactly the split the
   mapping cache keys on: the DFG goes through canonicalization, and
   the fault mask is compared separately so a grown mask can take the
   repair path instead of forcing a cold miss. *)
let signature t =
  let b = Buffer.create 128 in
  let add_int i = Buffer.add_string b (string_of_int i) in
  add_int t.cgra.Cgra.rows;
  Buffer.add_char b 'x';
  add_int t.cgra.Cgra.cols;
  Buffer.add_char b ':';
  Buffer.add_string b (Topology.to_string t.cgra.Cgra.topology);
  Array.iter
    (fun (pe : Pe.t) ->
      Buffer.add_char b '|';
      List.iter
        (fun c -> Buffer.add_string b (Ocgra_dfg.Op.func_class_to_string c))
        pe.Pe.classes;
      Buffer.add_char b ':';
      add_int pe.Pe.rf_size;
      if pe.Pe.has_const then Buffer.add_char b 'c')
    t.cgra.Cgra.pes;
  (match t.kind with
  | Spatial -> Buffer.add_string b ";spatial"
  | Temporal { max_ii; max_time } ->
      Buffer.add_string b ";temporal:";
      add_int max_ii;
      Buffer.add_char b ':';
      add_int max_time);
  Buffer.contents b

let describe t =
  Printf.sprintf "%s on %s (%s, %d ops, %d deps)"
    (match t.kind with
    | Spatial -> "spatial mapping"
    | Temporal { max_ii; _ } -> Printf.sprintf "temporal mapping (II <= %d)" max_ii)
    (Cgra.name t.cgra)
    (if Dfg.is_acyclic t.dfg then "acyclic" else "with recurrences")
    (Dfg.node_count t.dfg) (Dfg.edge_count t.dfg)
