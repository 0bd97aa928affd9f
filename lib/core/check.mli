(** The independent mapping validator: recomputes every resource and
    timing constraint from scratch, sharing no state with the router,
    so mapper bugs surface as violations instead of silently wrong
    "valid" mappings.  [Mapper.run] passes every mapper's output
    through this. *)

type violation = string

(** Empty list = valid. Checks: II bounds against the problem kind;
    binding shape, ranges and PE capability; FU-slot exclusivity modulo
    II across ops and route hops; register-file capacity per modulo
    slot; per-edge route well-formedness (hop adjacency, hold locality,
    exact timing against the consumer's read cycle). *)
val validate : Problem.t -> Mapping.t -> violation list
