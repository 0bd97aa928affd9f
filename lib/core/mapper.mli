(** The common mapper interface: every technique in the framework —
    one per Table I cell — is a value of {!t}. *)

(** The rungs of {!Repair}'s certified escalation ladder, cheapest
    first; defined here so a {!verdict} can carry the certifying rung. *)
type rung = Untouched | Route_only | Local_replace | Ii_bump | Full_fallback

val rung_to_string : rung -> string

(** What happened to one harness tier try.  [Failed] covers both
    "technique gave up" and "produced an invalid mapping" (the latter
    carries the validator's INVALID note in [detail]); [Retried] is a
    failed try the harness immediately reran with a varied seed (only
    a tier's final failing try stays [Failed]); [Cancelled] means a
    sibling won the race first; [Expired] that the tier's wall-clock
    share ran out; [Repaired r] that {!Repair}'s ladder certified the
    mapping at rung [r]. *)
type verdict = Won | Mapped_lost | Failed | Retried | Cancelled | Expired | Repaired of rung

type tier_report = {
  tier : string;  (** mapper name *)
  try_no : int;  (** 0-based retry index *)
  verdict : verdict;
  took_s : float;  (** wall clock this try consumed *)
  detail : string;  (** the tier's own outcome note *)
  counters : (string * int) list;
      (** engine counters attributed to this tier (racing only; [[]]
          elsewhere, and for races run without a live metrics sink) *)
}

val report_to_string : tier_report -> string

type outcome = {
  mapping : Mapping.t option;
  proven_optimal : bool;  (** the II was certified minimal within budget *)
  attempts : int;  (** IIs tried, restarts, ... (method-specific) *)
  elapsed_s : float;
  note : string;
  trail : tier_report list;
      (** one record per tier try, in execution (chain) order — [[]]
          outside the harness *)
}

type t = {
  name : string;
  citation : string;  (** representative papers from the survey *)
  scope : Taxonomy.scope;
  approach : Taxonomy.approach;
  map : Problem.t -> Ocgra_util.Rng.t -> Deadline.t -> Ocgra_obs.Ctx.t -> outcome;
      (** techniques poll the {!Deadline.t} at their checkpoints and
          return their best partial answer when it expires; they record
          spans and flush engine counters into the context (which
          defaults to the one-branch no-op [Ctx.off]) *)
}

val make :
  name:string ->
  citation:string ->
  scope:Taxonomy.scope ->
  approach:Taxonomy.approach ->
  (Problem.t -> Ocgra_util.Rng.t -> Deadline.t -> Ocgra_obs.Ctx.t -> outcome) ->
  t

(** [outcome ~attempts m] is a technique's raw answer: [proven]
    (default [false]) counts only when [m] is a mapping, [note]
    defaults to [""], and {!run} measures [elapsed_s]. *)
val outcome : ?proven:bool -> ?note:string -> attempts:int -> Mapping.t option -> outcome

(** {2 The candidate-II sweep}

    Every modulo mapper tries II = [from], [from + 1], ... up to
    [max_ii] and stops at the first mapping.  The mapping is proven
    optimal when no II before it {!Gave_up}: every smaller candidate
    was either below [from] (the MII by default) or {!Refuted}. *)

(** What one candidate II came to: a mapping, a proof that none exists
    at this II, or neither. *)
type step = Mapped of Mapping.t | Refuted | Gave_up

(** [Mapped] or [Gave_up]: how a technique that cannot prove
    infeasibility reports a candidate II. *)
val mapped_or_gave_up : Mapping.t option -> step

(** Why the sweep ended. *)
type stop =
  | Found  (** a candidate mapped *)
  | All_refuted  (** every candidate up to [max_ii] was refuted *)
  | Some_gave_up  (** [max_ii] was passed and some candidate gave up *)
  | Out_of_time  (** the deadline expired before [max_ii] was passed *)

type sweep = {
  found : Mapping.t option;
  proven : bool;  (** [found] and no candidate before it gave up *)
  steps : int;  (** candidate IIs stepped *)
  stop : stop;
}

(** [sweep ~max_ii dl p step] calls [step ii] for ii = [from] (default
    [max 1 (Mii.mii p.dfg p.cgra)]) upward until a candidate maps.  It
    stops without a mapping once ii exceeds [max_ii] or, failing that,
    when [dl] has expired; both are tested before each [step]. *)
val sweep : ?from:int -> max_ii:int -> Deadline.t -> Problem.t -> (int -> step) -> sweep

(** [tries n dl f], the per-II restart loop, calls [f 0], [f 1], ...
    and returns the first mapping.  It returns [None] once [n] tries
    are spent, when [dl] has expired (tested before each try), or at
    the first try that returns [Refuted] — the technique's signal that
    retrying at this II is pointless; the caller still reports the II
    as given up, never refuted. *)
val tries : int -> Deadline.t -> (int -> step) -> Mapping.t option

(** Run a mapper and validate its output with {!Check.validate}:
    invalid mappings are demoted to failures with the violations in
    [note], so a mapper can never report a wrong mapping as success —
    including on a degraded array, whose fault constraints the
    validator enforces.  [elapsed_s] is measured here on the wall
    clock; the technique's self-reported value is ignored.
    [?deadline_s] bounds the run in wall-clock seconds; [?obs] (default
    off) receives a [map:<name>] span, a [validate] sub-span and the
    technique's own spans and counters. *)
val run : t -> ?seed:int -> ?deadline_s:float -> ?obs:Ocgra_obs.Ctx.t -> Problem.t -> outcome

(** Deadline-bounded, retrying, fallback-chained mapping. *)
module Harness : sig
  (** [run chain p] tries each tier of [chain] in order (each via
      {!Mapper.run}, so every answer is validated), giving tier i an
      equal share of the remaining wall clock, and returns the first
      success.  A failing tier is retried with a varied seed up to
      [retries] extra times, so it gets at most [1 + retries] tries —
      the same count as {!Ocgra_par.Supervise.run}, whose
      [default_retries] (1) is also the default here.  The
      outcome [trail] carries one {!tier_report} per try; [note]
      renders the same story as text.  Raises [Invalid_argument] on
      an empty chain or a negative retry count. *)
  val run :
    ?seed:int ->
    ?deadline_s:float ->
    ?retries:int ->
    ?obs:Ocgra_obs.Ctx.t ->
    t list ->
    Problem.t ->
    outcome

  (** [race chain p] runs every tier of [chain] concurrently on up to
      [workers] domains (default {!Ocgra_par.Pool.default_workers}),
      each with the whole [deadline_s] budget; the first *validated*
      success wins and cancels the rest through the stop signal every
      engine already polls, so the answer arrives in min-over-tiers
      time instead of the chain's sum.  Losers are never killed: they
      observe cancellation, return, and land in the outcome [trail]
      with their verdict ({!Mapped_lost}, {!Cancelled}, {!Expired} or
      {!Failed}), elapsed time, and — when a live metrics sink is
      passed — the engine counters attributed to that tier (each tier
      maps into an {!Ocgra_obs.Ctx.fork}, folded back afterwards).
      With one worker or a single tier this degrades to the sequential
      {!run} with [retries = 0].  Which tier wins a close race is
      timing-dependent, but the result is always a validated mapping
      (or a failure carrying the whole trail).  Raises
      [Invalid_argument] on an empty chain. *)
  val race :
    ?seed:int ->
    ?deadline_s:float ->
    ?workers:int ->
    ?obs:Ocgra_obs.Ctx.t ->
    t list ->
    Problem.t ->
    outcome
end
