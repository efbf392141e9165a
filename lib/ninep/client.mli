(** The 9P client — the RPC half of the mount driver (paper section
    2.1): "The mount driver manages buffers, packs and unpacks
    parameters from messages, and demultiplexes among processes using
    the file server."

    Each call marshals a T-message, assigns a tag, transmits it, and
    blocks the calling process until the matching R-message arrives, so
    any number of processes can use one connection concurrently.  As
    in the kernel's [mountmux] there is no reader process: a caller
    whose reply has not come reads the transport itself when no other
    caller does, hands other callers' replies to them by tag, and
    passes the reading on to the oldest caller still waiting once its
    own reply is in.

    So nothing reads the transport between calls, and a hang-up is
    discovered by the next call: until then {!alive} is still true, so
    the mount driver's liveness check ([Vfs.Mnt]) and cfs serving a
    cached read see the connection as up, and the call that finds the
    EOF fails with {!Err}, as do all calls waiting with it. *)

type t
type fid

exception Err of string
(** An Rerror from the server (or a dead connection). *)

val make : Sim.Engine.t -> Transport.t -> t
(** A client on a transport; it starts no process. *)

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

val clwalk : t -> fid -> string -> fid * Fcall.qid
(** Clone the fid and walk the clone one step, in one Tclwalk round
    trip: the new fid and its qid.  The input fid is untouched; on
    failure the server holds no new fid. *)

val walk_path : t -> fid -> string list -> fid
(** {!clwalk} the first component, then walk the rest in place; the
    input fid is untouched.  Clunks the partial fid and re-raises on
    failure. *)

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
(** False once a call has found the transport's EOF, or after
    {!hangup}. *)

val open_fids : t -> int
(** How many fids the server currently holds for this client
    (attached, cloned or clwalked, not yet clunked/removed).  After the
    connection dies this is the leak count, and it no longer changes;
    the death also bumps the [9p.fids_leaked] trace counter by it. *)

val hangup : t -> unit
(** Mark the connection dead at once and close the transport;
    outstanding and future calls raise {!Err}.  A caller blocked
    waiting fails at once; the caller reading the transport, if any,
    fails when its read returns (at once on a {!Transport.pipe}, whose
    close ends both ends' reads). *)
