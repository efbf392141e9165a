(** An in-memory hierarchical file server — the stand-in for the
    paper's disk file servers.  Full 9P semantics: directories, create,
    remove, stat/wstat (rename), permission bits.

    [qid.vers] is bumped on {e every} modification — each write, each
    truncating open, each wstat, and on a directory for each
    create/remove inside it.  Caches (notably {!Cfs}) rely on this:
    a changed version on any reply qid is the signal that cached data
    for the file is stale. *)

type t
type node

val make : ?owner:string -> name:string -> unit -> t
(** An empty tree owned by [owner] (default ["bootes"]). *)

val fs : t -> node Server.fs
(** The server-framework view; pass to {!Server.serve}. *)

(** Direct (local) manipulation, for seeding trees in tests and
    examples. *)

val mkdir : t -> string -> unit
(** [mkdir t "/a/b"] — creates intermediate directories too. *)

val add_file : t -> string -> string -> unit
(** [add_file t "/a/b/f" contents]. *)

val read_file : t -> string -> string option
val exists : t -> string -> bool

val set_vers : t -> string -> int -> unit
(** Set a file's qid version, e.g. to one bump short of the 32-bit
    wrap. *)
