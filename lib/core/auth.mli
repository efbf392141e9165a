(** Authentication (paper sections 2.1 and 4.2).

    "The session and attach messages authenticate a connection" (§2.1),
    and the database's [auth=] attribute names the authentication
    server a client finds with [net!$auth!rexauth] (§4.2).

    The protocol is the 1993 shape, simplified: a file server's
    Rsession carries a random challenge; the client proves its identity
    by presenting a {e ticket} for that challenge in Tauth.  Clients
    don't share a key with every file server — they dial the auth
    server (rexauth), prove knowledge of their own secret, and receive
    a ticket sealed with the {e auth key} that file servers share with
    the auth server.

    The MAC is a keyed FNV-style hash — a stand-in for the era's DES,
    documented in DESIGN.md; the protocol structure, not the cipher, is
    the reproduction target. *)

val make_ticket : authkey:string -> user:string -> challenge:string -> string
val validate : authkey:string -> user:string -> challenge:string -> ticket:string -> bool

(** {1 The auth server (rexauth)} *)

val serve :
  Host.t -> users:(string * string) list -> authkey:string -> unit
(** Announce [net!*!rexauth].  Wire protocol, one delimited message
    each way: request ["ticket <user> <challenge> <mac>"] where [mac] =
    the keyed hash of [user ^ challenge] under the user's secret; reply
    ["ok <ticket>"] or ["no <reason>"]. *)

exception Auth_error of string

val get_ticket :
  Vfs.Env.t -> user:string -> secret:string -> challenge:string -> string
(** Dial [net!$auth!rexauth] and obtain a ticket.
    @raise Auth_error if refused or unreachable. *)

(** {1 Authenticated 9P} *)

val server_hook :
  authkey:string -> Ninep.Server.auth_hook
(** Pass to {!Ninep.Server.serve} to demand a valid ticket before
    attach. *)

val client_attach :
  Vfs.Env.t ->
  Ninep.Client.t ->
  user:string ->
  secret:string ->
  aname:string ->
  Ninep.Client.fid
(** Session, fetch the challenge, obtain a ticket from the auth server
    through this environment's /net, authenticate, attach. *)
