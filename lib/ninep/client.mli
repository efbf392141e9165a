(** The 9P client — the RPC half of the mount driver (paper section
    2.1): "The mount driver manages buffers, packs and unpacks
    parameters from messages, and demultiplexes among processes using
    the file server."

    Each call marshals a T-message, assigns a tag, transmits it, and
    blocks the calling process until the matching R-message arrives; a
    demultiplexer process routes replies by tag, so any number of
    processes can use one connection concurrently. *)

type t
type fid

exception Err of string
(** An Rerror from the server (or a dead connection). *)

val make : Sim.Engine.t -> Transport.t -> t
(** Start the demultiplexer on a transport. *)

val session : t -> unit
(** Initialize the connection (Tsession).  Call once before attach. *)

val attach : t -> uname:string -> aname:string -> fid
(** Authenticate-and-attach: returns a fid for the server's root. *)

val attach_q : t -> uname:string -> aname:string -> fid * Fcall.qid
(** Like {!attach} but also returns the root qid from Rattach. *)

val clone : t -> fid -> fid
(** Duplicate a fid (like dup). *)

val walk : t -> fid -> string -> Fcall.qid
(** Move the fid one level down the hierarchy. *)

val walk_path : t -> fid -> string list -> fid
(** Clone then walk each component (using Tclwalk for the first hop);
    the input fid is untouched.  Clunks the partial fid and re-raises
    on failure. *)

val open_ : t -> fid -> ?trunc:bool -> Fcall.mode -> Fcall.qid
val create : t -> fid -> name:string -> perm:int32 -> Fcall.mode -> Fcall.qid
val read : t -> fid -> offset:int64 -> count:int -> string
val write : t -> fid -> offset:int64 -> string -> int
val clunk : t -> fid -> unit
val remove : t -> fid -> unit
val stat : t -> fid -> Fcall.dir
val wstat : t -> fid -> Fcall.dir -> unit

val read_dir : t -> fid -> Fcall.dir list
(** Read a whole (open) directory from offset 0. *)

val read_all : t -> fid -> string
(** Read an open file from offset 0 to EOF. *)

val flush : t -> oldtag:int -> unit

val rpc : t -> Fcall.tmsg -> Fcall.rmsg
(** Raw escape hatch (used by tests).  Raises {!Err} on an [Rerror],
    a dead connection, or a message {!Fcall.encode} refuses. *)

val alive : t -> bool

val open_fids : t -> int
(** How many fids the server currently holds for this client
    (attached, cloned or clwalked, not yet clunked/removed).  After the
    connection dies this is the leak count, and it no longer changes;
    the death also bumps the [9p.fids_leaked] trace counter by it. *)

val hangup : t -> unit
(** Close the transport; outstanding and future calls raise
    {!Err}. *)
