(** cfs — the caching 9P file-server proxy.

    The paper's economy rests on 9P crossing slow media: serial lines,
    Datakit virtual circuits, gateways feeding diskless terminals.
    Plan 9 answered the latency with [cfs], "a user-level file server
    ... interposed on the 9P stream between the terminal and the file
    server" that kept a write-through cache of file blocks on a local
    disk.  This module is that proxy, simulated: 9P in, 9P out.

    A [t] speaks 9P {e as a client} on the [upstream] transport (to any
    9P server — ramfs, exportfs, a remote kernel) and {e serves} 9P on
    {!transport}, which the local kernel's mount driver mounts exactly
    as it would the raw connection.  In between sits a fixed-budget LRU
    block cache keyed by [(qid.path, block index)]:

    - {b Validation} is by [qid.vers].  Every Rwalk/Ropen/Rstat/Rcreate
      reply carries the file's qid; when the version differs from the
      cached one the file's blocks are discarded (an {e invalidation}).
      The 1993 cfs needed a separate stat round trip for this — in 9P1
      the qid rides every walk and open reply, so revalidation here is
      free of extra messages.
    - {b Reads} are served from cached blocks.  A miss issues one
      upstream Tread; on sequential access it is widened to the
      {e read-ahead} window (whole blocks, capped at the 8 KiB 9P data
      limit), so many small local reads collapse into few large round
      trips.  A short or empty reply marks end-of-file, which is cached
      too.
    - {b Writes} go through synchronously (write-through: the cache is
      never the only copy), then update any cached blocks in place.
      The proxy accounts one version bump per write so its own traffic
      is not mistaken for a foreign change at the next open.
    - {b Eviction} is strict LRU over blocks, bounded by [budget]
      bytes.

    Everything is observable: hit/miss/evict/invalidation counters are
    kept in an {!Obs.Metrics.t} (mirrored into the engine's trace as
    [cfs.*] when one is attached) and served Plan 9 style through
    {!ctl_fs}, a [ctl]/[stats]/[status] conversation directory. *)

type config = {
  bsize : int;  (** cache block size in bytes (default 1024) *)
  budget : int;  (** cache capacity in bytes of block data (default 256 KiB) *)
  readahead : int;
      (** read-ahead window in blocks fetched by one upstream read on
          sequential access (default 8; capped so one fetch fits in a
          single 9P message) *)
}

val default_config : config

type t

val make :
  ?config:config -> Sim.Engine.t -> upstream:Ninep.Transport.t -> unit -> t
(** Interpose the proxy on [upstream]: starts the upstream client
    demultiplexer and the local 9P server loop.  The upstream Tsession
    is sent lazily at the first attach (so [make] itself may be called
    outside process context).
    @raise Invalid_argument if [bsize] is not in [1 .. maxfdata]. *)

val transport : t -> Ninep.Transport.t
(** The cached side of the proxy: hand this to {!Ninep.Client.make}
    (and then to [mount]) wherever the raw server connection would have
    gone. *)

val connect : t -> Ninep.Transport.t
(** One more in-process connection to the cache, alongside
    {!transport}.  Every connection shares the one block cache and
    upstream client, so a cache can serve a whole rack of clients — or
    another [Cfs.t] can stack on top of it ([make ~upstream:(connect
    rack)]) to form a terminal-tier/rack-tier hierarchy.  Version
    invalidations noticed on any connection discard the shared blocks,
    so sibling clients never read bytes staler than the qid version the
    proxy has seen. *)

val serve : t -> Ninep.Transport.t -> Sim.Proc.t
(** Serve the cache's 9P face on an existing transport (e.g. a network
    fd accepted by a listener).  Returns the per-connection server
    process; each connection has its own fid table but shares the
    cache. *)

val set_upstream : t -> Ninep.Transport.t -> unit
(** Replace the upstream connection — the heal path after a partition
    killed the old one.  The block cache and qid-version tracking
    survive (the new transport must reach the {e same} file server), so
    the cache comes back warm; fids minted through the old connection
    are refused with ["upstream redialed: stale fid"] and their holders
    must re-attach. *)

val config : t -> config

val flush : t -> unit
(** Drop every cached block (version tracking restarts; never counts as
    an invalidation). *)

(** {1 Cache observability} *)

val counter : t -> string -> int
(** Counters: ["hits"] (reads served entirely from cache), ["misses"]
    (upstream Treads issued for data), ["hit_bytes"], ["miss_bytes"],
    ["evictions"], ["invalidations"], ["write_through"], ["dir_reads"],
    ["coalesced"] (concurrent same-block misses that waited on an
    in-flight upstream read instead of issuing their own).  Unknown
    names read 0. *)

val counters : t -> (string * int) list
(** All nonzero counters, sorted by name. *)

val cached_bytes : t -> int
(** Current bytes of block data held. *)

val cached_files : t -> int
(** Files with at least one cached block. *)

val stats_text : t -> string
(** The [stats] file: one ["name value\n"] line per counter plus
    current [cached_bytes]/[cached_files]. *)

type ctlnode

val ctl_fs : t -> ctlnode Ninep.Server.fs
(** A conversation directory exposing the cache: [ctl] (write
    ["flush"], ["readahead n"], ["budget n"] (a smaller budget evicts
    at once), or ["bsize n"] — the last implies a flush), [stats]
    ({!stats_text}) and [status] (one line of configuration and
    occupancy).  Mount it wherever the name space wants it, e.g.
    [/mnt/cfs]. *)
