(** Channels — handles to files on file servers (paper section 2.1:
    "A kernel data structure, the channel, is a handle to a file
    server").

    A channel pairs a node with the operations of the server it lives
    on.  Kernel-resident servers (device drivers, ramfs) are called
    procedurally through the same {!Ninep.Server.fs} record that
    {!Ninep.Server.serve} uses to answer remote RPCs — exactly the
    paper's "kernel resident device and protocol drivers use a
    procedural version of the protocol while external file servers use
    an RPC form". *)

type t =
  | Chan : {
      devid : int;  (** which mounted server instance this came from *)
      ops : 'n Ninep.Server.fs;
      node : 'n;
    }
      -> t

exception Error of string
(** All failing file operations raise this. *)

val attach : devid:int -> 'n Ninep.Server.fs -> uname:string -> aname:string -> t
val qid : t -> Ninep.Fcall.qid
val is_dir : t -> bool

val devid : t -> int
(** The server instance.  Two channels with equal [devid] and qid path
    refer to the same file — this is what the mount table compares. *)

val clone : t -> t

val walk : t -> string -> (t, string) result
(** Walk one component in place, as Twalk does: the result replaces
    the argument; on [Error] the argument is unchanged. *)

val walk1 : t -> string -> (t, string) result
(** A new channel one step below the argument, which is untouched:
    the server's [fs_clwalk], so on a mount it is one Tclwalk.  On
    [Error] no new channel exists. *)

val open_ : t -> ?trunc:bool -> Ninep.Fcall.mode -> unit
val create : t -> name:string -> perm:int32 -> Ninep.Fcall.mode -> t
val read : t -> offset:int64 -> count:int -> string
val write : t -> offset:int64 -> string -> int
val stat : t -> Ninep.Fcall.dir
val wstat : t -> Ninep.Fcall.dir -> unit
val remove : t -> unit
val clunk : t -> unit

val clunk_on_error : t -> (t -> 'a) -> 'a
(** [f c], clunking [c] if [f] raises {!Error}. *)

val using : t -> (t -> 'a) -> 'a
(** [f c], then clunk [c]. *)
