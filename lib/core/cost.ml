(* Quality metrics of a valid mapping.

   The survey's figure of merit for temporal mapping is the II ("the
   quest of the minimum II is the main motivation of many works");
   schedule length matters for spatial pipelines and for loop prologue
   cost; routing volume and utilization feed the energy proxy. *)

open Ocgra_arch

type t = {
  ii : int;
  schedule_length : int;
  route_hops : int;
  hold_cycles : int;
  fu_utilization : float; (* used FU slots / (PE count * II) *)
  ops : int;
}

let of_mapping (p : Problem.t) (m : Mapping.t) =
  let npe = Cgra.pe_count p.cgra in
  let used = Hashtbl.create 64 in
  Array.iter
    (fun (pe, time) -> Hashtbl.replace used (pe, ((time mod m.ii) + m.ii) mod m.ii) ())
    m.binding;
  Array.iter
    (fun route ->
      List.iter
        (function
          | Mapping.Hop { pe; time } ->
              Hashtbl.replace used (pe, ((time mod m.ii) + m.ii) mod m.ii) ()
          | Mapping.Hold _ -> ())
        route)
    m.routes;
  {
    ii = m.ii;
    schedule_length = Mapping.schedule_length m;
    route_hops = Mapping.total_route_hops m;
    hold_cycles = Mapping.total_hold_cycles m;
    fu_utilization = float_of_int (Hashtbl.length used) /. float_of_int (npe * m.ii);
    ops = Array.length m.binding;
  }

let to_string c =
  Printf.sprintf "II=%d len=%d hops=%d holds=%d util=%.0f%%" c.ii c.schedule_length c.route_hops
    c.hold_cycles (100.0 *. c.fu_utilization)
