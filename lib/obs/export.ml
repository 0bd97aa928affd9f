(* Exporters.

   Chrome trace-event JSON: an object with a [traceEvents] array of
   complete ("ph":"X") events, timestamps in microseconds relative to
   the trace epoch, one lane per recording domain — load it at
   chrome://tracing or ui.perfetto.dev.  Events are emitted in the
   stable {!Trace.spans} order.

   Metrics: either a flat JSON object or [key=value] lines, both in
   sorted-name order with integer values only, so two runs that did
   the same work produce byte-identical dumps.

   Every JSON document here is built as a [Json.t] and printed by
   [Json.render]; no exporter formats JSON by hand. *)

let chrome_trace (t : Trace.t) =
  let epoch = Trace.epoch t in
  let event (s : Trace.span) =
    Json.Obj
      ([
         ("name", Json.Str s.name);
         ("cat", Json.Str (if s.cat = "" then "ocgra" else s.cat));
         ("ph", Json.Str "X");
         ("ts", Json.Num ((s.ts -. epoch) *. 1e6));
         ("dur", Json.Num (s.dur *. 1e6));
         ("pid", Json.int 1);
         ("tid", Json.int s.tid);
       ]
      @
      match s.args with
      | [] -> []
      | args -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) args)) ])
  in
  Json.render
    (Json.Obj
       [
         ("traceEvents", Json.Arr (List.map event (Trace.spans t)));
         ("displayTimeUnit", Json.Str "ms");
       ])
  ^ "\n"

(* Counters and histogram summaries share one name-sorted integer key
   space: histogram [h] contributes [h.count/.max/.p50/...], so the
   dump stays a flat deterministic object whatever mix is live. *)
let metrics_kvs ?(hists = Hist.off) m =
  List.sort (fun (a, _) (b, _) -> compare a b) (Metrics.dump m @ Hist.summary_kvs hists)

let metrics_json ?hists (m : Metrics.t) =
  Json.render (Json.Obj (List.map (fun (name, v) -> (name, Json.int v)) (metrics_kvs ?hists m)))
  ^ "\n"

let metrics_kv ?hists (m : Metrics.t) =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, v) -> Buffer.add_string b (Printf.sprintf "%s=%d\n" name v))
    (metrics_kvs ?hists m);
  Buffer.contents b

(* One JSON object per line (JSONL), in sequence order; a trailing
   synthetic event reports drops past the bound, so truncation is
   visible in the log itself. *)
let events_jsonl (e : Events.t) =
  let b = Buffer.create 1024 in
  let add_event seq cat name args =
    let value = function Events.Int n -> Json.int n | Events.Str s -> Json.Str s in
    Buffer.add_string b
      (Json.render
         (Json.Obj
            (("seq", Json.int seq) :: ("cat", Json.Str cat) :: ("ev", Json.Str name)
            :: List.map (fun (k, v) -> (k, value v)) args)));
    Buffer.add_char b '\n'
  in
  List.iter (fun (ev : Events.event) -> add_event ev.seq ev.cat ev.name ev.args) (Events.events e);
  let dropped = Events.dropped e in
  if dropped > 0 then
    add_event (Events.count e) "obs" "events.dropped" [ ("dropped", Events.Int dropped) ];
  Buffer.contents b

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let write_chrome_trace t path = write_file path (chrome_trace t)

(* [.json] gets the JSON object; anything else the key=value lines. *)
let write_metrics ?hists m path =
  write_file path
    (if Filename.check_suffix path ".json" then metrics_json ?hists m else metrics_kv ?hists m)

let write_events e path = write_file path (events_jsonl e)
