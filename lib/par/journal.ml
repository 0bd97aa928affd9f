(* Append-only, crash-safe result journal.

   One line per completed unit of work (the caller chooses the
   format — campaigns and the bench sweep both write single-line JSON
   records).  Appends are mutex-serialised because they arrive from
   worker domains, and the file is fsync'd every [fsync_every] lines
   plus once on close, so a SIGKILL loses at most the last unsynced
   batch and at most one *torn* line — which is why [read_lines]
   surfaces raw lines and leaves "ignore what does not parse" to the
   caller: the torn tail of a crashed run must read as absent work,
   not as an error. *)

type t = {
  fd : Unix.file_descr;
  oc : out_channel;
  mutex : Mutex.t;
  fsync_every : int;
  mutable unsynced : int;
  mutable appended : int;
}

let open_append ?(fresh = false) ?(fsync_every = 16) path =
  if fsync_every < 1 then invalid_arg "Journal.open_append: fsync_every < 1";
  let flags =
    Unix.O_WRONLY :: Unix.O_CREAT :: (if fresh then [ Unix.O_TRUNC ] else [ Unix.O_APPEND ])
  in
  let fd = Unix.openfile path flags 0o644 in
  {
    fd;
    oc = Unix.out_channel_of_descr fd;
    mutex = Mutex.create ();
    fsync_every;
    unsynced = 0;
    appended = 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let sync_locked t =
  flush t.oc;
  Unix.fsync t.fd;
  t.unsynced <- 0

let append t line =
  locked t (fun () ->
      output_string t.oc line;
      output_char t.oc '\n';
      t.appended <- t.appended + 1;
      t.unsynced <- t.unsynced + 1;
      if t.unsynced >= t.fsync_every then sync_locked t)

let appended t = locked t (fun () -> t.appended)

let close t =
  locked t (fun () ->
      sync_locked t;
      close_out t.oc (* closes the underlying fd too *))

let read_lines path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let len = in_channel_length ic in
        let body = really_input_string ic len in
        (* a crash can leave a final line without its newline; keep it —
           the caller's parser decides whether it is whole *)
        String.split_on_char '\n' body |> List.filter (fun l -> l <> ""))
  end
