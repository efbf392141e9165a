(** The domain name server (paper section 4.2).

    "Like CS, the domain name server is a user level process providing
    one file, /net/dns.  A client writes a request of the form
    {i domain-name type} ... DNS performs a recursive query through the
    Internet domain name system producing one line per resource record
    found ... Like other domain name servers, DNS caches information
    learned from the network."

    The server half answers queries over simulated UDP port 53 from
    its ndb zone data; the resolver half queries an upstream server
    (recursing through a delegation if the upstream returns a referral)
    and caches positive answers with a TTL in virtual time. *)

val port : int
(** 53 *)

(** {1 Server side} *)

val serve_zone : Inet.Udp.stack -> db:Ndb.t -> Sim.Proc.t
(** Answer [ip]/[dom] queries from the database on UDP port 53.
    Unknown names are answered with a referral when the database has an
    [nsfor=<suffix> ns=<ip>] delegation entry, else with a negative
    answer. *)

(** {1 Resolver side} *)

type resolver

val resolver :
  Inet.Udp.stack ->
  server:Inet.Ipaddr.t ->
  ?cache_ttl:float ->
  ?timeout:float ->
  ?retries:int ->
  unit ->
  resolver

val lookup : resolver -> string -> rrtype:string -> string list
(** Resource record values ([rrtype] is ["ip"] or ["dom"]).  Blocks the
    calling process; failures and timeouts return []. *)

val lookup_ip : resolver -> string -> string list

type counters = {
  mutable queries : int;
  mutable cache_hits : int;
  mutable referrals_followed : int;
  mutable timeouts : int;
}

val counters : resolver -> counters

(** {1 The /net/dns file} *)

val mount : Vfs.Env.t -> resolver -> unit
(** Union the dns file into [/net]. *)
