(** Resource fault model for degraded arrays.

    A fault names one physical resource taken out of service.  The
    fault set is carried by the [Cgra.t] (see {!Cgra.with_faults}), so
    mappers, the validator and the simulator all see the same
    degradation. *)

type t =
  | Pe_down of int  (** the whole cell is unusable *)
  | Link_down of int * int  (** the directed link src -> dst is unusable *)
  | Fu_slot_dead of int * int
      (** (pe, slot): config-memory slot [slot] is dead — nothing may
          execute or pass through the PE at cycles [t] with
          [t mod ii = slot] (only binds for mappings with [ii > slot]). *)
  | Rf_reduced of int * int
      (** (pe, lost): the PE's register file loses [lost] entries. *)

val equal : t -> t -> bool

(** Canonical form of a fault mask: deduplicated and sorted (constructor
    then coordinates).  Identical masks are structurally equal, render
    identically and hash identically regardless of injection order;
    {!Cgra.with_faults} and {!list_to_string} both apply it. *)
val canonical : t list -> t list

(** Comma-separated rendering of the {!canonical} form; ["none"] for the
    empty list. *)
val list_to_string : t list -> string

(** [subset a b]: does every fault of [a] appear in [b]?  Both sides
    are taken to their {!canonical} form first, so injection order and
    duplicates never matter.  This is the mask half of the mapping
    cache's hit/repair/miss decision: a request mask that is a subset
    of the cached one is a pure hit (fewer constraints), a superset is
    a repair, anything else is a miss. *)
val subset : t list -> t list -> bool

(** {2 Transient events}

    Soft errors that strike {e during} a run, as opposed to the
    permanent resource faults above.  They are not carried on the
    [Cgra.t]; they are handed to the simulator's fault-injecting mode
    (see [Ocgra_sim.Machine.run_transient]).  Both models coexist. *)

type transient =
  | Bit_flip of { pe : int; cycle : int; bit : int }
      (** [bit] of [pe]'s output register written at the end of
          [cycle] is inverted (silent data corruption) *)
  | Link_drop of { src : int; dst : int; cycle : int }
      (** the value crossing src -> dst during [cycle] is lost; the
          consumer latches 0 *)
  | Config_upset of { pe : int; cycle : int; bit : int }
      (** from [cycle] on, the config slot firing at [cycle] decodes
          wrongly — persistent until the end of the run *)

(** [monte_carlo ~pe_count ~links ~horizon ~rate ~seed] draws one
    Bernoulli trial at probability [rate] per (pe, cycle) pair over
    cycles [0, horizon); struck pairs become bit flips (mostly), link
    glitches on a random wire from [links], or config upsets.
    Deterministic in [seed].  Raises [Invalid_argument] on a negative
    [pe_count] or a rate outside [0, 1]. *)
val monte_carlo :
  pe_count:int ->
  links:(int * int) list ->
  horizon:int ->
  rate:float ->
  seed:int ->
  transient list
