(** Per-process name spaces (paper sections 2.1 and 6).

    "Each process assembles a view of the system by building a name
    space connecting its resources."  A name space is a root channel
    plus a mount table mapping mounted-upon channels to ordered union
    lists.  [import -a] style unions work exactly as the paper's
    example: "local entries supersede remote ones of the same name so
    networks on the local machine are chosen in preference to those
    supplied remotely."

    Path resolution is lexical for [.] and [..] (paths are normalized
    before walking) — a documented simplification over the 1993
    kernel's walk-through-dot-dot; modern shells do the same cleanup. *)

type t

type flag =
  | Repl  (** replace the mount point's contents (MREPL) *)
  | Before  (** union, new entries first (MBEFORE; [import -b]) *)
  | After  (** union, new entries last (MAFTER; [import -a]) *)

val make : root:'n Ninep.Server.fs -> uname:string -> t
(** A fresh name space rooted at [root] (attached with [uname]). *)

val fork : t -> t
(** Copy the mount table — the new name space evolves independently
    (rfork RFNAMEG). *)

val uname : t -> string

val fresh_devid : t -> int
(** Allocate an identity for a newly mounted server instance (the
    mount driver's channels must not collide with anyone else's). *)

val register_mount : t -> onto:string -> Obs.Metrics.t -> Ninep.Client.t -> unit
(** Record a 9P mount's RPC counters and connection under its
    mount-point path.  The registry is shared across {!fork}s — there
    is one ledger per machine, whichever process mounted. *)

val mounts : t -> (string * Obs.Metrics.t) list
(** All registered mounts, in mount order — the input for
    {!Mnt.stats_fs}.  Each ledger's [leaked_fids] counter is first
    brought up to date: 0 while the connection lives, then the fids
    its server still held when it died. *)

val resolve : t -> string -> Chan.t
(** Walk an absolute, normalized path to a channel, applying mount
    table unions at every step: one clone of the root, stepped by
    {!walk1}.  A failed walk clunks what it held.  @raise Chan.Error. *)

val resolve_for_mount : t -> string -> Chan.t
(** Like {!resolve}, but the final component does not enter an
    existing mount — so repeated binds onto one mount point stack in a
    single union, as the mount system call requires. *)

val walk1 : t -> Chan.t -> string -> (Chan.t, string) result
(** One-component, union-aware walk.  Like {!enter} and {!create_target}
    it takes the channel over, as namec does: on success the result
    replaces it (walked in place, or clunked once a union member's
    walk answered); on failure it is still the caller's.  The result
    is the {e underlying} channel — call {!enter} before opening a
    file, so a channel that is itself a mount point keeps its union
    for further walks. *)

val clwalk : t -> Chan.t -> string -> (Chan.t, string) result
(** {!walk1} into a new channel, leaving the argument untouched, as
    Tclwalk does: a union member's {!Chan.walk1}, or the channel's own
    where nothing is mounted.  On failure no new channel exists. *)

val enter : t -> Chan.t -> Chan.t
(** Cross into the tree mounted at a channel (a clone of the head of
    its union); identity when nothing is mounted there. *)

val bind : ?mcreate:bool -> t -> src:Chan.t -> onto:Chan.t -> flag -> unit
(** Install [src] over [onto] in the mount table.  With [Before]/
    [After] the original contents stay visible in union order.
    [mcreate] (default [true]) grants the new member the MCREATE bit:
    creation through the union may land in it (see {!create_target}).
    When a bind establishes a fresh union, the mounted-upon directory
    joins it with MCREATE set, preserving this table's historical
    create-in-the-underlying-directory behaviour — a documented
    divergence from the 1993 kernel, which required an explicit [-c]
    even there.  Takes over both channels: [onto] is clunked unless it
    joins a fresh union. *)

val unmount : ?src:Chan.t -> t -> onto:Chan.t -> unit
(** Drop every mount on [onto]; with [src], drop only the union
    member(s) whose channel key matches [src] (Plan 9's two-argument
    unmount), dissolving the union when the last member goes.  [onto]
    and [src] stay the caller's; the dropped members are not clunked,
    since a forked name space may still hold them. *)

type member = { m_chan : Chan.t; m_create : bool }

val members : t -> Chan.t -> member list
(** The ordered union list at a channel, with each member's MCREATE
    bit ([[c]] if nothing is mounted). *)

val create_target : t -> Chan.t -> (Chan.t, string) result
(** Where a create through [c] lands: a clone of the first union
    member carrying MCREATE — or [c] itself when nothing is mounted
    there.  [Error "mounted directory forbids creation"] when a union
    exists but no member allows creation. *)

val read_dir : t -> Chan.t -> Ninep.Fcall.dir list
(** Union directory listing: entries of every member, duplicates
    suppressed, first member wins.  A member that fails (e.g. its
    server is partitioned away) is skipped, not fatal — the union
    stays readable through the surviving members. *)

val chaos_union_lost_walk : bool ref
(** Selftest plant (never set outside [--selftest]): a union walk that
    hits a dead connection stops instead of falling through to the
    remaining members. *)

val normalize : dot:string -> string -> string list
(** Resolve a possibly-relative path against [dot], apply [.]/[..]
    lexically, return components. *)
