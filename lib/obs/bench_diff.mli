(** The gate over [BENCH_*.json] snapshots — the engine behind
    [ocgra report], and the one place that says what is gated.

    Snapshots must carry a top-level ["schema"] version and ["bench"]
    name; {!diff} refuses mismatched pairs.  Wall-clock leaves (key
    ending ["_s"] or containing ["time"]) may be up to [tol_time]
    slower; derived ["speedup"] leaves and boolean time verdicts are
    skipped.  Every other leaf — counts, ["ii"], boolean verdicts,
    names, nulls — must equal the baseline exactly: any change fails,
    including one that looks better.  A change that really is better
    re-commits its snapshot. *)

type snapshot = { path : string; schema : int; bench : string; root : Json.t }

val load : string -> (snapshot, string) result
(** Parse and validate the stamp; the error says what is missing. *)

type cls =
  | Time of float  (** relative change of a wall-clock leaf; positive = slower *)
  | Exact  (** a leaf that must not change at all *)

type finding = {
  at : string;  (** JSONPath-ish location, e.g. [$.kernels[2].incremental.conflicts] *)
  cls : cls;
  base : Json.t;
  cand : Json.t;
}

type report = {
  baseline : string;
  candidate : string;
  bench : string;
  schema : int;
  checked : int;
  failures : finding list;
  structural : string list;
}

val diff :
  ?tol_time:float -> baseline:snapshot -> candidate:snapshot -> unit -> (report, string) result
(** [tol_time] defaults to [0.25].  [Error] for bench/schema
    mismatches; shape drift inside a matching pair (a missing key, an
    array length, a leaf against an object) lands in
    [report.structural]. *)

val render_human : report -> string

val to_json : report -> Json.t
(** The machine-readable report; an infinite relative change (a time
    leaf that was 0) appears as the string ["inf"]. *)
