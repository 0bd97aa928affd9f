(** Append-only, crash-safe result journal: one caller-formatted line
    per completed unit of work, appended from any domain (appends are
    mutex-serialised), fsync'd every [fsync_every] lines and on close.
    A SIGKILL therefore loses at most the last unsynced batch and at
    most one torn line; {!read_lines} returns raw lines and the
    caller's parser skips what does not parse, so a crashed run's
    journal replays as "that work is absent", never as corruption. *)

type t

(** [open_append path] opens (creating if needed) for appending;
    [~fresh:true] truncates first — starting a new run over an old
    journal.  [fsync_every] defaults to 16; raises [Invalid_argument]
    below 1. *)
val open_append : ?fresh:bool -> ?fsync_every:int -> string -> t

(** Append one line (the newline is added here).  Domain-safe. *)
val append : t -> string -> unit

(** Lines appended through this handle (not lines already on disk). *)
val appended : t -> int

(** Sync and close. *)
val close : t -> unit

(** All non-empty lines of [path]; [[]] when the file does not exist.
    The final line may be torn (crash mid-write) — callers must treat
    an unparsable line as absent work. *)
val read_lines : string -> string list
