(* Router over the time-expanded modulo routing resource graph (MRRG).

   A route moves a value from its producer (pu, tu) to a consumer
   (pv, tv + dist * II) through one-cycle hops (Route ops occupying FU
   slots) and register-file holds (occupying RF entries).  Because
   every transition advances time by exactly one cycle (RF entry is the
   only zero-time move), the search is a layered dynamic program over
   states (pe, in_rf) per cycle — Dijkstra specialised to a DAG.

   Costs are supplied by the caller: [fu_cost pe time] and
   [rf_cost pe time] return [None] to forbid a resource (strict
   routing) or [Some c] to price it (negotiated congestion). *)

open Ocgra_arch

type cost_model = {
  fu_cost : int -> int -> int option; (* pe -> absolute time -> cost *)
  rf_cost : int -> int -> int option;
}

(* Strict cost model against an occupancy: occupied FU slots and full
   RFs are forbidden; free resources have unit-ish costs that prefer
   short paths and cheap holds. *)
let strict (cgra : Cgra.t) (occ : Occupancy.t) =
  {
    fu_cost = (fun pe time -> if Occupancy.fu_free occ ~pe ~time then Some 4 else None);
    rf_cost =
      (fun pe time ->
        let size = Cgra.effective_rf_size cgra pe in
        if Occupancy.rf_count occ ~pe ~time < size then Some 1 else None);
  }

let inf = max_int / 4

(* Memo entries of one search's prices: not asked yet, or forbidden
   ([None]).  Prices are non-negative, so neither collides with one. *)
let unpriced = min_int
let forbidden = min_int + 1

(* The reusable buffers of the searches over one array.  Rows are
   layer-major: the state [s] of layer [l] is at [l * 2 * npe + s] in
   [cost] and [parent], the PE [pe] of layer [l] at [l * npe + pe] in
   the price memos.  A search resets the rows it will use and nothing
   else; the arrays grow on demand and never shrink.

   [feeders.(d)] lists, ascending, the PEs whose output register a
   consumer on [d] can read: [d] itself and every PE with a link into
   [d].  A one-way [Link_down] makes the link relation asymmetric, so
   the lists are built from every PE's outgoing links, never from
   [d]'s own. *)
type workspace = {
  cgra : Cgra.t;
  npe : int;
  feeders : int list array;
  mutable cost : int array;
  mutable parent : int array;
  mutable fu_memo : int array;
  mutable rf_memo : int array;
}

let workspace (cgra : Cgra.t) =
  let npe = Cgra.pe_count cgra in
  let feeders = Array.make npe [] in
  (* descending [pe], so each list stays ascending; a PE repeated in
     one reach list (a 1-wide torus wraps onto itself) is already at
     the head of its target's list *)
  for pe = npe - 1 downto 0 do
    let add d = match feeders.(d) with q :: _ when q = pe -> () | l -> feeders.(d) <- pe :: l in
    add pe;
    List.iter add (Cgra.reachable_in_one cgra pe)
  done;
  { cgra; npe; feeders; cost = [||]; parent = [||]; fu_memo = [||]; rf_memo = [||] }

(* Make the rows of a search to depth [layers] ready: grown if short,
   then reset to unreached and unpriced.  FU prices are read at layers
   [0, layers - 1] only (a hop out of the last layer leaves the field),
   everything else at [0, layers]. *)
let reset ws ~layers =
  let rows = layers + 1 and nstates = 2 * ws.npe in
  if rows * nstates > Array.length ws.cost then begin
    let cap = max rows (2 * Array.length ws.cost / nstates) in
    ws.cost <- Array.make (cap * nstates) inf;
    ws.parent <- Array.make (cap * nstates) (-1);
    ws.fu_memo <- Array.make (cap * ws.npe) unpriced;
    ws.rf_memo <- Array.make (cap * ws.npe) unpriced
  end
  else begin
    Array.fill ws.cost 0 (rows * nstates) inf;
    Array.fill ws.parent 0 (rows * nstates) (-1);
    Array.fill ws.fu_memo 0 (layers * ws.npe) unpriced;
    Array.fill ws.rf_memo 0 (rows * ws.npe) unpriced
  end

(* The cost field of a routing search: costs and parents per layer
   (cycle offset from [avail]) and state (pe, in_rf), in the rows of
   its workspace, so it is a view that the next search on that
   workspace overwrites.  The edge-centric mapper reads the whole field
   to choose consumer slots; [find] extracts one goal. *)
type field = {
  cgra : Cgra.t;
  feeders : int list array;
  avail : int;
  src_pe : int;
  layers : int;
  cost : int array; (* layer * nstates + state -> cost *)
  parent : int array; (* layer * nstates + state -> the predecessor's index *)
}

(* The price of [pe] at [time], asked of [f] once per search and kept
   in entry [k] of [memo]. *)
let price memo (f : int -> int -> int option) k pe time =
  let c = memo.(k) in
  if c <> unpriced then c
  else begin
    let c = match f pe time with Some c -> c | None -> forbidden in
    memo.(k) <- c;
    c
  end

let relax (ws : workspace) k c from =
  if c < ws.cost.(k) then begin
    ws.cost.(k) <- c;
    ws.parent.(k) <- from
  end

(* hop: a Route op on each target q at [time] (memo row [krow]) reads
   the output register at index [from], reaching row [next] *)
let rec hops (ws : workspace) f krow time next cf from = function
  | [] -> ()
  | q :: rest ->
      let c = price ws.fu_memo f (krow + q) q time in
      if c <> forbidden then relax ws (next + (2 * q)) (cf + c) from;
      hops ws f krow time next cf from rest

(* entering the RF is a zero-time move within a layer: the RF write
   happens at the end of the value's production cycle *)
let intra_layer (ws : workspace) f ~row ~krow ~time =
  for pe = 0 to ws.npe - 1 do
    let out = row + (2 * pe) in
    let cf = ws.cost.(out) in
    if cf < inf then begin
      let c = price ws.rf_memo f (krow + pe) pe time in
      if c <> forbidden then relax ws (out + 1) (cf + c) out
    end
  done

(* Build the cost field up to [layers] cycles after [avail].

   [ii] teaches the search which transitions are structurally illegal
   at II = 1: a self-hop re-uses the same FU slot its producer (or the
   previous hop) already holds, and an RF hold needs two FU uses of the
   holding PE (the write-through instruction and the reader), so both
   are dropped — II = 1 routing is exact-length disjoint paths, the
   systolic regime.  Residual modulo self-conflicts of long routes at
   II >= 2 are caught at claim time by the callers.

   Each (layer, PE) is priced at most once per search, on first use:
   the cost model is read-only while a search runs, and one FU slot is
   the hop target of every state that reaches it.  Pricing every PE of
   every layer up front costs more than it saves, since most states are
   never reached. *)
let explore (ws : workspace) ~ii (cm : cost_model) ~src_pe ~avail ~layers =
  let cgra = ws.cgra in
  let npe = ws.npe in
  let rf_usable = ii > 1 in
  let nstates = npe * 2 in
  reset ws ~layers;
  let cost = ws.cost in
  cost.(2 * src_pe) <- 0;
  if rf_usable then intra_layer ws cm.rf_cost ~row:0 ~krow:0 ~time:avail;
  for l = 0 to layers - 1 do
    let row = l * nstates and krow = l * npe and time = avail + l in
    let next = row + nstates in
    for pe = 0 to npe - 1 do
      let out = row + (2 * pe) in
      let cf = cost.(out) in
      if cf < inf then
        hops ws cm.fu_cost krow time next cf out
          (if rf_usable then Cgra.reachable_in_one cgra pe else Cgra.neighbours cgra pe);
      let cr = cost.(out + 1) in
      if cr < inf then begin
        (* keep holding *)
        let c = price ws.rf_memo cm.rf_cost (krow + npe + pe) pe (time + 1) in
        if c <> forbidden then relax ws (next + (2 * pe) + 1) (cr + c) (out + 1);
        (* re-emit: Route op on pe at cycle avail + l reads own RF *)
        let c = price ws.fu_memo cm.fu_cost (krow + pe) pe time in
        if c <> forbidden then relax ws (next + (2 * pe)) (cr + c) (out + 1)
      end
    done;
    if rf_usable then intra_layer ws cm.rf_cost ~row:next ~krow:(krow + npe) ~time:(time + 1)
  done;
  { cgra; feeders = ws.feeders; avail; src_pe; layers; cost; parent = ws.parent }

(* The output state of the first strictly cheapest PE of [pes] at row
   [row], or [best_state] if none beats [best]. *)
let rec cheapest_feeder cost row best_state best = function
  | [] -> best_state
  | pe :: rest ->
      let c = cost.(row + (2 * pe)) in
      if c < best then cheapest_feeder cost row (2 * pe) c rest
      else cheapest_feeder cost row best_state best rest

(* Best final state for a consumer on [dst_pe] reading at layer [l]:
   a feeder's output register (the first strictly cheapest, in
   ascending PE order), else its own RF if strictly cheaper still. *)
let goal_state (field : field) ~dst_pe ~layer =
  (* rows past [field.layers] hold an earlier search's costs *)
  if layer < 0 || layer > field.layers then
    invalid_arg "Route.goal_state: layer outside the field";
  let cost = field.cost in
  let row = layer * 2 * Cgra.pe_count field.cgra in
  let s = cheapest_feeder cost row (-1) inf field.feeders.(dst_pe) in
  let best = if s < 0 then inf else cost.(row + s) in
  let s_rf = (2 * dst_pe) + 1 in
  let c_rf = cost.(row + s_rf) in
  if c_rf < best then Some (s_rf, c_rf) else if best >= inf then None else Some (s, best)

(* Extract the steps reaching [dst_pe] at [consume_at] from a field. *)
let extract (field : field) ~dst_pe ~consume_at =
  let layers = consume_at - field.avail in
  if layers < 0 || layers > field.layers then None
  else begin
    let npe = Cgra.pe_count field.cgra in
    let nstates = npe * 2 in
    let time_of_layer l = field.avail + l in
    match goal_state field ~dst_pe ~layer:layers with
    | None -> None
    | Some (goal, best) ->
        (* walk parents to recover the (layer, state) sequence *)
        let seq = ref [] in
        let l = ref layers and s = ref goal in
        let continue_ = ref true in
        while !continue_ do
          seq := (!l, !s) :: !seq;
          let p = field.parent.((!l * nstates) + !s) in
          if p < 0 then continue_ := false
          else begin
            l := p / nstates;
            s := p mod nstates
          end
        done;
        (* forward pass: convert state transitions into steps *)
        let steps = ref [] in
        let rf_entry_time = ref None in
        let rec walk = function
          | (l1, s1) :: ((l2, s2) :: _ as rest) ->
              let t1 = time_of_layer l1 in
              let pe1 = s1 / 2 and rf1 = s1 land 1 = 1 in
              let pe2 = s2 / 2 and rf2 = s2 land 1 = 1 in
              (if l1 = l2 then begin
                 (* rf entry at time t1 *)
                 assert ((not rf1) && rf2 && pe1 = pe2);
                 rf_entry_time := Some t1
               end
               else if rf1 && rf2 then () (* hold extension *)
               else if rf1 && not rf2 then begin
                 (* re-emit: Hold then Hop on pe1 at t1 *)
                 match !rf_entry_time with
                 | Some te ->
                     steps :=
                       Mapping.Hop { pe = pe1; time = t1 }
                       :: Mapping.Hold { pe = pe1; from_ = te - 1; until = t1 }
                       :: !steps;
                     rf_entry_time := None
                 | None -> steps := Mapping.Hop { pe = pe1; time = t1 } :: !steps
               end
               else (* plain hop onto pe2 *)
                 steps := Mapping.Hop { pe = pe2; time = t1 } :: !steps);
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

(* Find a cheapest route for a value produced on [src_pe] readable from
   cycle [avail] to a consumer op on [dst_pe] executing at cycle
   [consume_at].  Returns (steps, cost). *)
let find ws ~ii (cm : cost_model) ~src_pe ~avail ~dst_pe ~consume_at =
  if consume_at < avail then None
  else begin
    let field = explore ws ~ii cm ~src_pe ~avail ~layers:(consume_at - avail) in
    extract field ~dst_pe ~consume_at
  end

(* Convenience: route a DFG edge of a partially-built mapping.  [lat]
   is the producer latency; [ii] the initiation interval (the consumer
   of a distance-d edge reads d iterations later). *)
let route_edge ws cm ~ii ~src:(src_pe, src_time) ~dst:(dst_pe, dst_time) ~lat ~dist =
  find ws ~ii cm ~src_pe ~avail:(src_time + lat) ~dst_pe
    ~consume_at:(dst_time + (dist * ii))
