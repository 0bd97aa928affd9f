(* JSONL wire codec for the mapping daemon.

   Both directions ride on [Ocgra_obs.Json]: requests and responses
   are built as [Json.t] values and printed by [Json.render], whose
   compact fixed layout is the wire format.  Every parse failure is a
   value, not an exception: the daemon owes a per-line error
   *response* on malformed input, never a crash. *)

module Dfg = Ocgra_dfg.Dfg
module Op = Ocgra_dfg.Op
module Fault = Ocgra_arch.Fault
module Cgra = Ocgra_arch.Cgra
module Topology = Ocgra_arch.Topology
module Mapping = Ocgra_core.Mapping
module Mapper = Ocgra_core.Mapper
module Json = Ocgra_obs.Json

type payload = Kernel of string | Inline of Dfg.t

type req = {
  id : string;
  payload : payload;
  rows : int;
  cols : int;
  topology : string;
  hetero : bool;
  rf : int option;
  faults : Fault.t list;
  n_faults : int;
  fault_seed : int;
  spatial : bool;
  max_ii : int option;
}

let default_req =
  {
    id = "";
    payload = Kernel "";
    rows = 4;
    cols = 4;
    topology = "mesh";
    hetero = false;
    rf = None;
    faults = [];
    n_faults = 0;
    fault_seed = 1;
    spatial = false;
    max_ii = None;
  }

(* ---------- op codec: reuses [Op.to_string]'s vocabulary ---------- *)

let binops =
  [ Op.Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Min; Max; Lt; Le; Eq; Ne ]

let op_of_code s =
  match String.index_opt s ' ' with
  | Some i -> (
      let head = String.sub s 0 i in
      let arg = String.sub s (i + 1) (String.length s - i - 1) in
      match head with
      | "const" -> (
          match int_of_string_opt arg with
          | Some c -> Ok (Op.Const c)
          | None -> Error (Printf.sprintf "bad const immediate %S" arg))
      | "in" -> Ok (Op.Input arg)
      | "out" -> Ok (Op.Output arg)
      | "load" -> Ok (Op.Load arg)
      | "store" -> Ok (Op.Store arg)
      | _ -> Error (Printf.sprintf "unknown op %S" s))
  | None -> (
      match s with
      | "not" -> Ok Op.Not
      | "neg" -> Ok Op.Neg
      | "select" -> Ok Op.Select
      | "route" -> Ok Op.Route
      | "vote" -> Ok Op.Vote
      | "cmp" -> Ok Op.Cmp
      | "nop" -> Ok Op.Nop
      | _ -> (
          match List.find_opt (fun b -> Op.binop_to_string b = s) binops with
          | Some b -> Ok (Op.Binop b)
          | None -> Error (Printf.sprintf "unknown op %S" s)))

(* ---------- writers ---------- *)

let ints l = Json.Arr (List.map Json.int l)

let dfg_json d =
  let node i =
    let name = Dfg.name d i in
    Json.Obj
      (("op", Json.Str (Op.to_string (Dfg.op d i)))
      :: (if name = "" then [] else [ ("name", Json.Str name) ]))
  in
  Json.Obj
    [
      ("nodes", Json.Arr (List.init (Dfg.node_count d) node));
      ( "edges",
        Json.Arr
          (List.map
             (fun (e : Dfg.edge) -> ints [ e.Dfg.src; e.Dfg.dst; e.Dfg.port; e.Dfg.dist ])
             (Dfg.edges d)) );
    ]

let fault_json f =
  let kind, coords =
    match f with
    | Fault.Pe_down pe -> ("pe", [ pe ])
    | Fault.Link_down (s, d) -> ("link", [ s; d ])
    | Fault.Fu_slot_dead (pe, slot) -> ("slot", [ pe; slot ])
    | Fault.Rf_reduced (pe, lost) -> ("rf", [ pe; lost ])
  in
  Json.Arr (Json.Str kind :: List.map Json.int coords)

(* Optional members are omitted at their defaults, so a request line
   stays short and reads back to the same [req]. *)
let req_to_json r =
  let opt cond kvs = if cond then kvs else [] in
  let some name = function Some v -> [ (name, Json.int v) ] | None -> [] in
  Json.render
    (Json.Obj
       (List.concat
          [
            [ ("id", Json.Str r.id) ];
            (match r.payload with
            | Kernel name -> [ ("kernel", Json.Str name) ]
            | Inline d -> [ ("dfg", dfg_json d) ]);
            [ ("rows", Json.int r.rows); ("cols", Json.int r.cols) ];
            opt (r.topology <> "mesh") [ ("topology", Json.Str r.topology) ];
            opt r.hetero [ ("hetero", Json.Bool true) ];
            some "rf" r.rf;
            opt (r.faults <> [])
              [ ("faults", Json.Arr (List.map fault_json (Fault.canonical r.faults))) ];
            opt (r.n_faults > 0)
              [ ("n_faults", Json.int r.n_faults); ("fault_seed", Json.int r.fault_seed) ];
            opt r.spatial [ ("spatial", Json.Bool true) ];
            some "max_ii" r.max_ii;
          ]))

(* ---------- readers ---------- *)

let ( let* ) = Result.bind

let field_bool obj name default =
  match Json.member name obj with
  | None -> Ok default
  | Some v -> (
      match Json.to_bool v with
      | Some b -> Ok b
      | None -> Error (Printf.sprintf "field %S: expected a bool" name))

let field_int_opt obj name =
  match Json.member name obj with
  | None -> Ok None
  | Some v -> (
      match Json.to_int v with
      | Some i -> Ok (Some i)
      | None -> Error (Printf.sprintf "field %S: expected an integer" name))

let field_int obj name default = Result.map (Option.value ~default) (field_int_opt obj name)

let field_str_opt obj name =
  match Json.member name obj with
  | None -> Ok None
  | Some v -> (
      match Json.to_string v with
      | Some s -> Ok (Some s)
      | None -> Error (Printf.sprintf "field %S: expected a string" name))

let int_list name v =
  match Json.to_list v with
  | None -> Error (Printf.sprintf "%s: expected an array" name)
  | Some xs ->
      List.fold_left
        (fun acc x ->
          let* acc = acc in
          match Json.to_int x with
          | Some i -> Ok (i :: acc)
          | None -> Error (Printf.sprintf "%s: expected integers" name))
        (Ok []) xs
      |> Result.map List.rev

let parse_fault v =
  match Json.to_list v with
  | Some (kind :: coords) -> (
      let* kind =
        match Json.to_string kind with
        | Some s -> Ok s
        | None -> Error "fault: kind must be a string"
      in
      let* coords = int_list "fault coordinates" (Json.Arr coords) in
      match (kind, coords) with
      | "pe", [ pe ] -> Ok (Fault.Pe_down pe)
      | "link", [ s; d ] -> Ok (Fault.Link_down (s, d))
      | "slot", [ pe; slot ] -> Ok (Fault.Fu_slot_dead (pe, slot))
      | "rf", [ pe; lost ] -> Ok (Fault.Rf_reduced (pe, lost))
      | k, _ -> Error (Printf.sprintf "fault: unknown kind/arity %S" k))
  | _ -> Error "fault: expected [\"kind\", coords...]"

(* The node and edge arrays are read in one pass each, straight into
   the DFG: the first bad element ends the read with its error. *)
let parse_dfg v =
  let d = Dfg.create () in
  let* nodes =
    match Json.member "nodes" v with
    | Some (Json.Arr xs) -> Ok xs
    | Some _ -> Error "dfg.nodes: expected an array"
    | None -> Error "dfg: missing nodes"
  in
  let rec add_nodes = function
    | [] -> Ok ()
    | node :: rest -> (
        match Json.member "op" node with
        | Some (Json.Str code) ->
            let* op = op_of_code code in
            let name = match Json.member "name" node with Some (Json.Str s) -> s | _ -> "" in
            ignore (Dfg.add ~name d op);
            add_nodes rest
        | _ -> Error "dfg node: missing op")
  in
  let* () = add_nodes nodes in
  let* edges =
    match Json.member "edges" v with
    | Some (Json.Arr xs) -> Ok xs
    | Some _ -> Error "dfg.edges: expected an array"
    | None -> Ok []
  in
  let n = Dfg.node_count d in
  let is_int x = Option.is_some (Json.to_int x) in
  let int x = Option.get (Json.to_int x) in
  let rec add_edges = function
    | [] -> Ok d
    | Json.Arr quad :: _ when not (List.for_all is_int quad) -> Error "dfg edge: expected integers"
    | Json.Arr [ src; dst; port; dist ] :: rest ->
        let src = int src and dst = int dst in
        let dist = int dist in
        if src < 0 || src >= n || dst < 0 || dst >= n then
          Error (Printf.sprintf "dfg edge %d->%d: node out of range" src dst)
        else if dist < 0 then Error (Printf.sprintf "dfg edge %d->%d: negative distance" src dst)
        else begin
          Dfg.add_edge ~dist ~port:(int port) d ~src ~dst;
          add_edges rest
        end
    | Json.Arr _ :: _ -> Error "dfg edge: expected [src,dst,port,dist]"
    | _ :: _ -> Error "dfg edge: expected an array"
  in
  add_edges edges

let parse_req line =
  let* obj = Json.parse line in
  let* () = match obj with Json.Obj _ -> Ok () | _ -> Error "expected a JSON object" in
  let* id =
    match Json.member "id" obj with
    | Some (Json.Str s) -> Ok s
    | _ -> Error "missing string field \"id\""
  in
  let* payload =
    match (Json.member "kernel" obj, Json.member "dfg" obj) with
    | Some (Json.Str k), None -> Ok (Kernel k)
    | None, Some d ->
        let* d = parse_dfg d in
        Ok (Inline d)
    | Some _, Some _ -> Error "give either \"kernel\" or \"dfg\", not both"
    | _ -> Error "missing payload: \"kernel\" or \"dfg\""
  in
  let* rows = field_int obj "rows" default_req.rows in
  let* cols = field_int obj "cols" default_req.cols in
  let* topology = field_str_opt obj "topology" in
  let topology = Option.value topology ~default:default_req.topology in
  let* hetero = field_bool obj "hetero" default_req.hetero in
  let* rf = field_int_opt obj "rf" in
  let* faults =
    match Json.member "faults" obj with
    | None -> Ok []
    | Some v -> (
        match Json.to_list v with
        | None -> Error {|field "faults": expected an array|}
        | Some xs ->
            List.fold_left
              (fun acc f ->
                let* acc = acc in
                let* f = parse_fault f in
                Ok (f :: acc))
              (Ok []) xs
            |> Result.map List.rev)
  in
  let* n_faults = field_int obj "n_faults" 0 in
  let* fault_seed = field_int obj "fault_seed" default_req.fault_seed in
  let* spatial = field_bool obj "spatial" false in
  let* max_ii = field_int_opt obj "max_ii" in
  if rows < 1 || cols < 1 then Error "rows/cols must be >= 1"
  else
    Ok
      {
        id;
        payload;
        rows;
        cols;
        topology;
        hetero;
        rf;
        faults;
        n_faults;
        fault_seed;
        spatial;
        max_ii;
      }

(* A listed fault must name a resource of the healthy array: a PE
   among its [rows * cols], a physical wire, a slot >= 0, a loss of at
   least one register. *)
let check_fault ~rows ~cols topology f =
  let bad why = Error (Printf.sprintf "fault %s: %s" (Json.render (fault_json f)) why) in
  let off_array pe = pe < 0 || pe >= rows * cols in
  match f with
  | Fault.Pe_down pe | Fault.Fu_slot_dead (pe, _) | Fault.Rf_reduced (pe, _) | Fault.Link_down (pe, _)
    when off_array pe ->
      bad (Printf.sprintf "PE %d is not on the %dx%d array" pe rows cols)
  | Fault.Link_down (s, d) when not (List.mem d (Topology.neighbours topology ~rows ~cols s)) ->
      bad (Printf.sprintf "no wire %d->%d on the %dx%d %s" s d rows cols (Topology.to_string topology))
  | Fault.Fu_slot_dead (_, slot) when slot < 0 -> bad "negative slot"
  | Fault.Rf_reduced (_, lost) when lost < 1 -> bad "must lose at least 1 register"
  | _ -> Ok ()

let to_request ~lookup r =
  let* dfg =
    match r.payload with
    | Inline d -> Ok d
    | Kernel name -> lookup name
  in
  let* topology =
    match Topology.of_string r.topology with
    | t -> Ok t
    | exception Invalid_argument m -> Error m
  in
  let* () =
    List.fold_left
      (fun acc f -> Result.bind acc (fun () -> check_fault ~rows:r.rows ~cols:r.cols topology f))
      (Ok ()) r.faults
  in
  let* () =
    if Option.value r.rf ~default:0 < 0 then Error {|field "rf": must be >= 0|}
    else if r.n_faults < 0 then Error {|field "n_faults": must be >= 0|}
    else Ok ()
  in
  (* the listed faults, then the drawn ones: one adjacency per array *)
  let faults healthy =
    r.faults
    @ if r.n_faults > 0 then Cgra.inject_faults healthy ~seed:r.fault_seed ~n:r.n_faults else []
  in
  let cgra =
    if r.hetero then Cgra.adres_like ?rf_size:r.rf ~faults ~topology ~rows:r.rows ~cols:r.cols ()
    else Cgra.uniform ?rf_size:r.rf ~faults ~topology ~rows:r.rows ~cols:r.cols ()
  in
  Ok { Svc.id = r.id; dfg; cgra; spatial = r.spatial; max_ii = r.max_ii }

(* ---------- responses ---------- *)

let response_to_json (r : Svc.response) =
  let outcome =
    match r.Svc.served with
    | Svc.Rejected -> [ ("status", Json.Str "rejected") ]
    | served ->
        [ ("status", Json.Str "ok"); ("served", Json.Str (Svc.served_to_string served)) ]
        @ (match served with
          | Svc.Repair_hit rung -> [ ("rung", Json.Str (Mapper.rung_to_string rung)) ]
          | _ -> [])
        @
        match r.Svc.mapping with
        | Some m ->
            [
              ("ii", Json.int m.Mapping.ii);
              ("certified", Json.Bool true);
              ( "binding",
                Json.Arr
                  (Array.to_list (Array.map (fun (pe, cyc) -> ints [ pe; cyc ]) m.Mapping.binding))
              );
            ]
        | None -> []
  in
  Json.render (Json.Obj ((("id", Json.Str r.Svc.id) :: outcome) @ [ ("note", Json.Str r.Svc.note) ]))

let error_to_json ~id msg =
  Json.render
    (Json.Obj [ ("id", Json.Str id); ("status", Json.Str "error"); ("error", Json.Str msg) ])

let salvage_id ~line s =
  let fallback = Printf.sprintf "line-%d" line in
  match Json.parse s with
  | Ok obj -> (
      match Json.member "id" obj with Some (Json.Str id) -> id | _ -> fallback)
  | Error _ -> fallback
