(** Graph-drawing-based spatial mapping (Yoon et al. [23]): spring
    layout of the DFG in the plane, nearest-free-cell legalisation,
    then pipeline stages and strict routing.  Up to ten layouts, each
    snapped and strictly extracted; [attempts] counts the layouts.  The
    deadline is checked between layouts.  The context records one span
    per layout and counts restarts ([graph_drawing.restarts]). *)
val mapper : Ocgra_core.Mapper.t
