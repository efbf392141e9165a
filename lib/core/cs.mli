(** The connection server (paper section 4.2).

    "On each system a user level connection server process, CS,
    translates symbolic names to addresses ... A client writes a
    symbolic name to /net/cs then reads one line for each matching
    destination reachable from this system.  The lines are of the form
    {i filename message}, where filename is the path of the clone file
    to open for a new connection and message is the string to write to
    it to make the connection."

    Meta-names implemented, from the paper:
    - the network name [net] "selects any network in common between
      source and destination supporting the specified service";
    - a host of the form [$attr] searches the database entry for the
      source system, then its subnetwork, then its network (via
      {!Ndb.sysattr}) and uses every value found;
    - a host of ["*"] produces announcement strings;
    - literal addresses pass through ([tcp!135.104.117.5!513] and
      [tcp!research.bell-labs.com!login] are equivalent);
    - domain names fall back to DNS when the database has no entry:
      "For domain names however, CS first consults another user level
      process, the domain name server." *)

type network = {
  nw_proto : string;  (** "il", "tcp", "udp", "dk" *)
  nw_clone : string;  (** e.g. "/net/il/clone" *)
  nw_kind : [ `Inet | `Dk ];
}

type t

val make :
  sysname:string ->
  db:Ndb.t ->
  networks:network list ->
  ?dns:(string -> string list) ->
  unit ->
  t
(** [sysname] is this host's database name ("most closely associated"
    $attr searches start from it); [networks] are in local preference
    order; [dns] resolves a domain name to IP addresses when the
    database can't. *)

val translate : t -> string -> (string list, string) result
(** One reply line per reachable destination.  Answers are memoized —
    the database is immutable, so a thousand dials to one service cost
    one ndb walk. *)

val cache_stats : t -> int * int
(** [(hits, misses)] of the answer cache. *)

val flush_cache : t -> unit
(** Drop all memoized answers (and zero the hit/miss counters). *)

val mount : Vfs.Env.t -> t -> unit
(** Union the [/net/cs] file into [/net]. *)
