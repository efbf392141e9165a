(** The mount driver (paper section 2.1): "A kernel resident file
    server called the mount driver converts the procedural version of
    9P into RPCs."

    Given a 9P client connection, [fs] produces an ordinary
    {!Ninep.Server.fs} whose every operation is a remote procedure
    call; channels onto it are indistinguishable from channels onto a
    kernel-resident server, which is what makes [mount] transparent.

    Each mount can carry an {!Obs.Metrics.t} counting the T-messages it
    sends by type — the per-mount RPC ledger that lets a cache like
    [Cfs] prove, at this layer, that round trips really disappeared.
    {!Env.mount} creates and registers one per mount; {!stats_fs}
    serves the whole registry as a directory (mounted at [/dev/mnt] by
    the core host).

    [Cfs] builds its upstream face on this driver too: it keeps these
    operations and adds its cache around walk, open, create, stat,
    read, write and remove, so 9P is spoken in one place. *)

type node

val rpc_names : string list
(** The T-message counter names, in wire-protocol order: [Tattach],
    [Tclone], [Twalk], [Tclwalk], [Topen], [Tcreate], [Tread],
    [Twrite], [Tclunk], [Tremove], [Tstat], [Twstat]. *)

val fs :
  Ninep.Client.t ->
  ?aname:string ->
  ?metrics:Obs.Metrics.t ->
  name:string ->
  unit ->
  node Ninep.Server.fs
(** Each [fs_attach] performs a Tattach for the calling user on the
    wire.  Errors come back as the server's Rerror strings.  With
    [metrics], every operation bumps the counter named after the
    T-message it sends (see {!rpc_names}), counted whether or not the
    server answers with an error.

    A node's qid is the one its last Rattach, Rwalk, Rclwalk, Ropen or
    Rcreate carried.  [fs_clwalk] is one Tclwalk: a walk that crosses
    a mount costs one round trip.  Every operation goes to the
    connection that minted the node's fid, whichever connection the
    [fs] was made with.

    A clone can fail: on a hung-up connection [fs_clone] and
    [fs_clwalk] answer the hangup error like every other operation, so
    a union walk steps past a partitioned member and directory merges
    skip it (per-mount error isolation). *)

val live : node -> (unit, string) result
(** [Error] with the reason any operation on the node would now fail
    with, found without a message: its connection has hung up. *)

val stats_text : Obs.Metrics.t -> string
(** One ["name count\n"] line per {!rpc_names} entry (zeros included)
    plus ["total n"] and ["leaked_fids n"] lines — the latter counts
    fids the server still held when the connection died (see
    {!Ns.mounts}). *)

type stats_node

val stats_fs :
  (unit -> (string * Obs.Metrics.t) list) -> stats_node Ninep.Server.fs
(** A read-only directory over a mount registry (re-read on every
    operation, so later mounts appear): one numbered subdirectory per
    registered mount holding [mountpoint] (the path mounted onto) and
    [stats] ({!stats_text}). *)
