(** Exporters: Chrome trace-event JSON (loadable at chrome://tracing
    or ui.perfetto.dev), flat metrics dumps (JSON object or
    [key=value] lines, with histogram summaries folded into the same
    name-sorted integer key space), and JSONL event logs.  Metrics
    and event dumps are deterministic — two runs that did the same
    work are byte-identical.  All JSON is printed by {!Json.render}. *)

val write_file : string -> string -> unit

val write_chrome_trace : Trace.t -> string -> unit

val write_metrics : ?hists:Hist.t -> Metrics.t -> string -> unit
(** Counters plus, when [hists] is given, each histogram's
    [name.count/.max/.p50/.p90/.p99/.sum] summary keys, one sorted
    flat namespace: a JSON object when the path ends in [.json],
    otherwise [key=value] lines. *)

val write_events : Events.t -> string -> unit
(** One RFC 8259 JSON object per line, in sequence order; drops past
    the bound appear as a trailing [events.dropped] record. *)
