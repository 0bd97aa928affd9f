(** Register allocation analysis of a mapped kernel ([29] rotating vs
    [25] unified register files): every Hold in a route is a value
    parked in a register file. *)

(** Register need per PE, maximised and summed over the PEs.  The
    rotating need is the max per-slot live count (what the checker
    bounds against rf_size); the unified/static need greedily colours
    hold {e instances} (a hold spanning s cycles keeps ceil(s/II)
    values alive at once) and is always >= the rotating need — the gap
    is the benefit of rotation that [29] reports. *)
type summary = {
  total_holds : int;
  max_rotating : int;
  max_unified : int;
  total_rotating : int;
  total_unified : int;
}

val summarize : Ocgra_core.Mapping.t -> npe:int -> summary
