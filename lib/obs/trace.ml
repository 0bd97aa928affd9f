(* Lock-free span recorder on the monotonic clock.

   A span is a closed timed region; open spans are never shared — they
   live as stack frames of the domain that is recording them, and only
   the *completed* record is published, with a compare-and-set push
   onto one shared Treiber list.  That is the whole domain-safety
   story: no locks, no per-domain flush protocol, and a worker inside
   [Pool.run] or [Harness.race] can record at will because the only
   contended word is the list head, touched once per span *close* —
   never inside an engine's hot loop.

   Nesting is expressed the way the Chrome trace-event viewer wants
   it: complete ("ph":"X") events on the same thread lane nest by time
   containment, so a parent span that wraps [f] strictly contains every
   span [f] records on the same domain.  The lane id is the domain id.

   Cost contract: a disabled trace ([off]) does no clock read, no
   allocation and no atomic traffic — [span] is one branch around a
   direct call of [f]. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  name : string;
  cat : string;
  ts : float; (* absolute seconds on the monotonic clock *)
  dur : float; (* seconds *)
  tid : int; (* recording domain's id *)
  args : (string * string) list;
}

type t = {
  enabled : bool;
  epoch : float; (* ts origin; exporters emit ts relative to this *)
  spans : span list Atomic.t;
}

let off = { enabled = false; epoch = 0.0; spans = Atomic.make [] }
let create () = { enabled = true; epoch = now (); spans = Atomic.make [] }
let enabled t = t.enabled

let rec publish t s =
  let old = Atomic.get t.spans in
  if not (Atomic.compare_and_set t.spans old (s :: old)) then publish t s

let add t ?(cat = "") ?(args = []) ~ts ~dur name =
  if t.enabled then
    publish t { name; cat; ts; dur; tid = (Domain.self () :> int); args }

let span t ?cat ?args name f =
  if not t.enabled then f ()
  else begin
    let ts = now () in
    match f () with
    | v ->
        add t ?cat ?args ~ts ~dur:(now () -. ts) name;
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        add t ?cat ?args ~ts ~dur:(now () -. ts) name;
        Printexc.raise_with_backtrace e bt
  end

(* Publication order is whatever the CAS race produced; give callers
   (and the exporters) a stable view instead: by start time, ties
   broken longest-first so a parent sorts before the children it
   contains, then by name and lane. *)
let spans t =
  List.sort
    (fun a b ->
      let c = compare a.ts b.ts in
      if c <> 0 then c
      else
        let c = compare b.dur a.dur in
        if c <> 0 then c
        else
          let c = compare a.name b.name in
          if c <> 0 then c else compare a.tid b.tid)
    (Atomic.get t.spans)

let epoch t = t.epoch
