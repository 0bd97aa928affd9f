(* Independent mapping validator.

   Every mapper's output is validated here before it is reported: the
   checker recomputes all resource usage and dependence timing from
   scratch, sharing no state with the router, so that a bug in a mapper
   or in the router surfaces as a violation rather than as a silently
   wrong "valid mapping".  This is the framework's ground truth for
   what Section II.C calls "a valid mapping, i.e. a binding (and
   scheduling) of operations of the application on the hardware
   resources while guaranteeing the dependencies". *)

open Ocgra_dfg
open Ocgra_arch

type violation = string

let validate (p : Problem.t) (m : Mapping.t) : violation list =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let dfg = p.dfg and cgra = p.cgra in
  let npe = Cgra.pe_count cgra in
  let n = Dfg.node_count dfg in
  (* 0. shape *)
  if m.ii < 1 then fail "II = %d < 1" m.ii;
  (match p.kind with
  | Problem.Spatial -> if m.ii <> 1 then fail "spatial mapping must have II = 1 (got %d)" m.ii
  | Problem.Temporal { max_ii; _ } ->
      if m.ii > max_ii then fail "II = %d exceeds the problem bound %d" m.ii max_ii);
  if Array.length m.binding <> n then
    fail "binding covers %d nodes, DFG has %d" (Array.length m.binding) n;
  if Array.length m.routes <> Dfg.edge_count dfg then
    fail "routes cover %d edges, DFG has %d" (Array.length m.routes) (Dfg.edge_count dfg);
  if !problems <> [] then List.rev !problems
  else begin
    let horizon = Problem.max_time p in
    (* 1. binding legality (fault checks first, so a violation names the
       faulted resource rather than a derived capability failure) *)
    Array.iteri
      (fun v (pe, time) ->
        if pe < 0 || pe >= npe then fail "node %d bound to nonexistent PE %d" v pe
        else begin
          if time < 0 || time >= horizon then fail "node %d scheduled at cycle %d (horizon %d)" v time horizon;
          if not (Cgra.pe_ok cgra pe) then fail "node %d bound to faulted PE %d (pe-down)" v pe
          else begin
            if not (Cgra.slot_ok cgra ~pe ~ii:m.ii ~time) then
              fail "node %d scheduled in dead FU slot (pe %d, slot %d)" v pe
                (((time mod m.ii) + m.ii) mod m.ii);
            let op = Dfg.op dfg v in
            if not (Cgra.supports cgra pe op) then
              fail "node %d (%s) bound to PE %d which does not support it" v (Op.to_string op) pe
          end
        end)
      m.binding;
    if !problems <> [] then List.rev !problems
    else begin
      (* 2. FU exclusivity (modulo II) and RF capacity *)
      let fu = Array.make (npe * m.ii) [] in
      let slot pe time = (pe * m.ii) + (((time mod m.ii) + m.ii) mod m.ii) in
      Array.iteri
        (fun v (pe, time) -> fu.(slot pe time) <- Printf.sprintf "op %d" v :: fu.(slot pe time))
        m.binding;
      Array.iteri
        (fun e route ->
          List.iter
            (function
              | Mapping.Hop { pe; time } ->
                  if pe < 0 || pe >= npe then fail "edge %d hop on nonexistent PE %d" e pe
                  else if time < 0 then fail "edge %d hop at negative cycle %d" e time
                  else begin
                    if not (Cgra.pe_ok cgra pe) then fail "edge %d: hop on faulted PE %d (pe-down)" e pe
                    else if not (Cgra.slot_ok cgra ~pe ~ii:m.ii ~time) then
                      fail "edge %d: hop in dead FU slot (pe %d, slot %d)" e pe
                        (((time mod m.ii) + m.ii) mod m.ii);
                    fu.(slot pe time) <- Printf.sprintf "route %d" e :: fu.(slot pe time)
                  end
              | Mapping.Hold { pe; _ } ->
                  if pe >= 0 && pe < npe && not (Cgra.pe_ok cgra pe) then
                    fail "edge %d: hold on faulted PE %d (pe-down)" e pe)
            route)
        m.routes;
      Array.iteri
        (fun i users ->
          if List.length users > 1 then
            fail "FU slot (pe %d, slot %d) oversubscribed: %s" (i / m.ii) (i mod m.ii)
              (String.concat ", " users))
        fu;
      let rf = Array.make (npe * m.ii) 0 in
      Array.iteri
        (fun e route ->
          List.iter
            (function
              | Mapping.Hold { pe; from_; until } ->
                  if pe < 0 || pe >= npe then fail "edge %d hold on nonexistent PE %d" e pe
                  else if until <= from_ then fail "edge %d hold with empty span %d..%d" e from_ until
                  else
                    for cy = from_ + 1 to until do
                      rf.(slot pe cy) <- rf.(slot pe cy) + 1
                    done
              | Mapping.Hop _ -> ())
            route)
        m.routes;
      Array.iteri
        (fun i count ->
          let pe = i / m.ii in
          let size = Cgra.effective_rf_size cgra pe in
          if count > size then
            fail "RF of PE %d oversubscribed at slot %d: %d live values, %d registers%s" pe
              (i mod m.ii) count size
              (if size < (Cgra.pe cgra pe).Pe.rf_size then " (reduced by fault)" else ""))
        rf;
      (* 3. every dependence is routed with consistent timing *)
      List.iteri
        (fun e (edge : Dfg.edge) ->
          let src_pe, src_time = m.binding.(edge.src) in
          let dst_pe, dst_time = m.binding.(edge.dst) in
          let lat = Op.latency (Dfg.op dfg edge.src) in
          let consume_at = dst_time + (edge.dist * m.ii) in
          let avail = ref (src_time + lat) in
          let cur = ref src_pe in
          let in_rf = ref false in
          let ok = ref true in
          List.iter
            (fun step ->
              if !ok then
                match step with
                | Mapping.Hop { pe; time } ->
                    if time <> !avail then begin
                      fail "edge %d (%d->%d): hop at cycle %d but value readable at %d" e edge.src
                        edge.dst time !avail;
                      ok := false
                    end
                    else if !in_rf && pe <> !cur then begin
                      fail "edge %d: hop off-PE %d while value is in RF of PE %d" e pe !cur;
                      ok := false
                    end
                    else if
                      (not !in_rf) && pe <> !cur && not (List.mem pe (Cgra.neighbours cgra !cur))
                    then begin
                      if List.mem pe (Cgra.raw_neighbours cgra !cur) then
                        fail "edge %d: hop from PE %d to PE %d over a faulted link or endpoint" e
                          !cur pe
                      else fail "edge %d: hop from PE %d to non-neighbour PE %d" e !cur pe;
                      ok := false
                    end
                    else begin
                      avail := time + 1;
                      cur := pe;
                      in_rf := false
                    end
                | Mapping.Hold { pe; from_; until } ->
                    if !in_rf then begin
                      fail "edge %d: consecutive holds" e;
                      ok := false
                    end
                    else if pe <> !cur then begin
                      fail "edge %d: hold on PE %d but value lives on PE %d" e pe !cur;
                      ok := false
                    end
                    else if from_ <> !avail - 1 then begin
                      fail "edge %d: hold written at end of %d but value produced at end of %d" e
                        from_ (!avail - 1);
                      ok := false
                    end
                    else if until < !avail then begin
                      fail "edge %d: hold read at %d before the value exists (%d)" e until !avail;
                      ok := false
                    end
                    else begin
                      avail := until;
                      in_rf := true
                    end)
            m.routes.(e);
          if !ok then begin
            if !avail <> consume_at then
              fail "edge %d (%d->%d): value arrives at cycle %d, consumer reads at %d" e edge.src
                edge.dst !avail consume_at;
            if !in_rf then begin
              if !cur <> dst_pe then
                fail "edge %d: value held in RF of PE %d but consumer is on PE %d" e !cur dst_pe
            end
            else if !cur <> dst_pe && not (List.mem dst_pe (Cgra.neighbours cgra !cur)) then
              if List.mem dst_pe (Cgra.raw_neighbours cgra !cur) then
                fail "edge %d: consumer PE %d reads PE %d over a faulted link or endpoint" e dst_pe
                  !cur
              else
                fail "edge %d: consumer PE %d cannot read output of non-neighbour PE %d" e dst_pe
                  !cur
          end)
        (Dfg.edges dfg);
      List.rev !problems
    end
  end
