(* Domain pool over a shared atomic task counter.

   Each worker claims the next unclaimed task index with
   [Atomic.fetch_and_add]; every slot of [results] is written by
   exactly one domain and read only after the joins, so the only
   synchronisation needed is the counter itself and the happens-before
   edge of [Domain.join].  Exceptions are captured per task and the
   lowest-index one is re-raised once the pool has drained — a failing
   task never leaves sibling domains unjoined.

   Observability: when a live [?obs] is passed, each task runs inside
   a span on its worker's domain lane and every claim bumps a
   per-worker counter ([pool.tasks.w<k>] — worker 0 is the calling
   domain).  Both sinks are lock-free (see Ocgra_obs), so tracing
   never serialises the pool; with the default [Ctx.off] the loop is
   the bare claim-run-record it always was. *)

let default_workers () =
  match Sys.getenv_opt "OCGRA_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let resolve workers n =
  let w = match workers with Some w -> max 1 w | None -> default_workers () in
  min w (max 1 n)

(* Shared worker loop: claim, run, record.  [on_done] lets Race hook
   winner election onto task completion without a second pool. *)
let drain ?(obs = Ocgra_obs.Ctx.off) ~workers ~on_done (tasks : (unit -> 'a) array) =
  let n = Array.length tasks in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let traced = Ocgra_obs.Ctx.enabled obs in
  let worker w () =
    let counter = if traced then Printf.sprintf "pool.tasks.w%d" w else "" in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        if traced then Ocgra_obs.Ctx.incr obs counter;
        let body () =
          try Ok (tasks.(i) ())
          with e -> Error (e, Printexc.get_raw_backtrace ())
        in
        let r =
          if traced then
            Ocgra_obs.Ctx.span obs ~cat:"pool" (Printf.sprintf "pool:task-%d" i) body
          else body ()
        in
        results.(i) <- Some r;
        (match r with Ok v -> on_done i v | Error _ -> ());
        loop ()
      end
    in
    loop ()
  in
  if workers <= 1 || n <= 1 then worker 0 ()
  else begin
    let domains = Array.init (workers - 1) (fun k -> Domain.spawn (worker (k + 1))) in
    worker 0 ();
    Array.iter Domain.join domains
  end;
  (* surface the lowest-index failure, then unwrap in task order *)
  Array.iter
    (function
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | Some (Ok _) | None -> ())
    results;
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error _) | None ->
          assert false (* every index < n is claimed exactly once *))
    results

let run ?workers ?obs tasks =
  drain ?obs ~workers:(resolve workers (Array.length tasks)) ~on_done:(fun _ _ -> ()) tasks
