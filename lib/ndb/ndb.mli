(** The network database (paper section 4.1).

    "One database on a shared server contains all the information
    needed for network administration.  Two ASCII files comprise the
    main database ... The files contain sets of attribute/value pairs
    of the form attr=value.  Systems are described by multi-line
    entries; a header line at the left margin begins each entry
    followed by zero or more indented attribute/value pairs."

    "To speed searches, we build hash table files for each attribute we
    expect to search often ... Every hash file contains the
    modification time of its master file so we can avoid using an
    out-of-date hash table.  Searches for attributes that aren't hashed
    or whose hash table is out-of-date still work, they just take
    longer." — {!write_hash}, stale detection, and the silent fallback
    are all implemented, with counters so tests and benches can verify
    which path ran. *)

type entry = (string * string) list
(** One multi-line database entry, as ordered attribute/value pairs.
    Attributes may repeat (a system with two [ip=] addresses). *)

type t

val parse_string : string -> entry list
(** Parse database text: left-margin lines start entries, indented
    lines continue them, [#] starts a comment, values may be
    double-quoted. *)

val of_string : string -> t
(** An in-memory, single-file database (tests, generated worlds). *)

val open_files : string list -> t
(** A database backed by real files, in search order — conventionally
    [/lib/ndb/local] then [/lib/ndb/global].
    @raise Sys_error if a file is unreadable. *)

val reload : t -> unit
(** Re-read backing files whose modification time changed. *)

val entries : t -> entry list

val get : entry -> string -> string option
(** First value of an attribute in an entry. *)

val get_all : entry -> string -> string list

val search : t -> attr:string -> value:string -> entry list
(** All entries containing the pair [attr=value], in database order.
    Uses a hash index for [attr] when a fresh one exists. *)

val find : t -> attr:string -> value:string -> rattr:string -> string list
(** Values of [rattr] across all entries matching [attr=value],
    deduplicated, in order. *)

(** {1 Hash indexes} *)

val write_hash : t -> attr:string -> unit
(** Build the on-disk index file [<master>.<attr>] for a file-backed
    database (in-memory databases index in memory).  The index records
    the master's modification time. *)

type lookup_stats = {
  mutable hash_lookups : int;  (** searches answered from an index *)
  mutable linear_scans : int;  (** searches that walked the file *)
  mutable stale_rejected : int;  (** indexes ignored as out of date *)
}

val stats : t -> lookup_stats

(** {1 Network-specific queries (section 4.2's [$attr] machinery)} *)

val ipattr : t -> ip:string -> attr:string -> string option
(** The value of [attr] "most closely associated" with an IP address:
    the host's own entry first, then its subnets from most to least
    specific ([ipnet] entries whose [ip]/[ipmask] contain the host;
    classful mask when [ipmask] is absent). *)

val ipnet_entry : t -> ip:string -> entry option
(** The most specific [ipnet] entry whose subnet contains [ip] —
    containment under the entry's own [ipmask], or the [ipmask] of the
    classful network entry containing it, or the class mask.  This is
    how the routed-topology builder maps an interface address to its
    segment, mask, gateway, and medium. *)

val sysattr : t -> sys:string -> attr:string -> string option
(** Like {!ipattr} but starting from a system name ([sys=] or [dom=]);
    falls back through the system's IP networks via its [ip=], then
    through its Datakit network via {!dkattr}. *)

val dkattr : t -> dk:string -> attr:string -> string option
(** The value of [attr] on the [dknet=] entry whose prefix contains
    the Datakit path (longest prefix wins) — so Datakit-only terminals
    inherit network attributes like [auth=] too. *)

val service_port : t -> proto:string -> service:string -> int option
(** [tcp=echo port=7] style lookups; a numeric service name is its own
    port. *)

val service_name : t -> proto:string -> port:int -> string option

val sys_entry : t -> string -> entry option
(** Find a system by [sys=], [dom=], or [ip=] value. *)
