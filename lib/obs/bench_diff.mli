(** Regression diffing over [BENCH_*.json] snapshots — the engine
    behind [ocgra report] and [bench diff].

    Snapshots must carry a top-level ["schema"] version and ["bench"]
    name; {!diff} refuses mismatched pairs.  Leaves are classified by
    key name: identity fields must match exactly, ["ii"] is exact
    quality (lower better), wall-clock fields compare lower-is-better
    under the generous [time_rel] tolerance (derived speedups and
    boolean time verdicts are skipped), and all other numbers —
    conflicts, decisions, counters — are deterministic work compared
    under [count_rel], which defaults to exact. *)

type snapshot = { path : string; schema : int; bench : string; root : Json.t }

val load : string -> (snapshot, string) result
(** Parse and validate the stamp; the error says what is missing. *)

type tol = { time_rel : float; count_rel : float }

val default_tol : tol
(** [{ time_rel = 0.25; count_rel = 0.0 }]. *)

type cls = Time | Count | Ii | Flag

type finding = {
  at : string;  (** JSONPath-ish location, e.g. [$.kernels[2].incremental.conflicts] *)
  cls : cls;
  base : float;
  cand : float;
  rel : float;  (** signed relative change; positive = worse *)
}

type report = {
  baseline : string;
  candidate : string;
  bench : string;
  schema : int;
  checked : int;
  regressions : finding list;
  improvements : finding list;
  structural : string list;
}

val diff : ?tol:tol -> baseline:snapshot -> candidate:snapshot -> unit -> (report, string) result
(** [Error] for bench/schema mismatches; structural drift inside a
    matching pair lands in [report.structural] (and fails {!ok}). *)

val ok : report -> bool
(** No regressions and no structural errors — the gate passes. *)

val render_human : report -> string

val to_json : report -> Json.t
(** The machine-readable report; infinite values (a side that failed
    to map) appear as the strings ["inf"] / ["-inf"]. *)
