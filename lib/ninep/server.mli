(** The 9P server framework.

    A file server supplies a record of operations over its own node
    type; {!serve} runs the protocol loop on a transport: it decodes
    T-messages, manages the fid table (including the [clone] semantics
    that make per-connection state work), and sends replies.  Every
    user-level file server in this system — ramfs, exportfs, the
    connection server, DNS — is built on this. *)

type 'n fs = {
  fs_name : string;
  fs_attach : uname:string -> aname:string -> ('n, string) result;
  fs_qid : 'n -> Fcall.qid;
  fs_walk : 'n -> string -> ('n, string) result;
      (** in place, as Twalk: the result replaces the node; an error
          leaves it as it was *)
  fs_open : 'n -> Fcall.mode -> trunc:bool -> (unit, string) result;
  fs_read : 'n -> offset:int64 -> count:int -> (string, string) result;
  fs_write : 'n -> offset:int64 -> data:string -> (int, string) result;
  fs_create :
    'n -> name:string -> perm:int32 -> Fcall.mode -> ('n, string) result;
  fs_remove : 'n -> (unit, string) result;
  fs_stat : 'n -> (Fcall.dir, string) result;
  fs_wstat : 'n -> Fcall.dir -> (unit, string) result;
  fs_clunk : 'n -> unit;
  fs_clone : 'n -> ('n, string) result;
      (** duplicate per-fid state; identity for stateless nodes.  On
          [Error] Tclone answers Rerror. *)
  fs_clwalk : 'n -> string -> ('n, string) result;
      (** clone and walk one step, as Tclwalk: a fresh node, the
          argument untouched; on [Error] no new node exists (a clone
          made on the way is clunked).  This is how a walk crosses a
          mount ([Vfs.Chan.walk1]): the mount driver sends it as one
          Tclwalk, one round trip instead of a Tclone and a Twalk.
          Servers with no cheaper way use {!clone_walk}. *)
}

val clone_walk : 'n fs -> 'n -> string -> ('n, string) result
(** [fs_clwalk] from the record's own parts: [fs_clone], then
    [fs_walk] on the clone, which [fs_clunk] gives back if the walk
    fails.  A server refers to its own record to use it:
    [let rec fs = { ...; fs_clwalk = (fun n -> clone_walk fs n) }]. *)

val read_only_err : string
(** ["permission denied"] — convenience for read-only files. *)

val dir_data : Fcall.dir list -> offset:int64 -> count:int -> string
(** Marshal a directory listing for Tread: serves whole 116-byte stat
    entries starting at [offset], never splitting an entry. *)

val slice : string -> offset:int64 -> count:int -> string
(** Serve a byte range of an in-memory string (the usual read
    implementation for synthesized files). *)

type auth_hook = uname:string -> challenge:string -> ticket:string -> bool
(** Decides whether a Tauth ticket proves [uname] for the session's
    current challenge. *)

val serve :
  ?threaded:bool ->
  ?auth:auth_hook ->
  Sim.Engine.t ->
  'n fs ->
  Transport.t ->
  Sim.Proc.t
(** Spawn the protocol loop; it exits when the transport hangs up.
    All fids are clunked (via [fs_clunk]) on exit.

    With [threaded] (default false), each T-message is handled by a
    worker process of the connection's pool, so a blocking operation (a
    read on an empty stream) doesn't stall other clients — the property
    the paper demands of exportfs: "Exportfs must be multithreaded since
    the system calls open, read and write may block."  The serve loop
    hands each T, in arrival order, to an idle worker, or spawns one when
    none is idle, so the pool grows to the connection's peak number of
    requests in flight and costs no process per message.  A Tflush kills
    the worker holding the tag, which then never rejoins the pool, and
    once Rflush is sent no R goes out under the flushed request's tag.
    At transport EOF idle workers exit and busy ones are killed (in tag
    order) and joined before the fids are clunked.

    With [auth], Rsession carries a random challenge and Tattach is
    refused until a Tauth presents a ticket the hook accepts — "the
    session and attach messages authenticate a connection". *)
