(** UDP — "while cheap, does not provide reliable sequenced delivery"
    (paper section 3).  Datagram service with port demultiplexing;
    message boundaries are preserved per packet; delivery is whatever
    the simulated wire does.

    Two faces share one ephemeral-port cursor.  /net/udp runs on the
    conversation core ({!Conv}): a dialed conversation takes its peer's
    datagrams, and each new peer of an announced port is a new call,
    admitted against the listener's backlog.  A bound socket ({!bind})
    is the raw face the DNS server and resolver poll. *)

type face
(** A /net/udp conversation: one peer's datagrams, one per read. *)

type priv
type stack = (face, priv) Conv.stack

val attach : Ip.stack -> stack

(** {1 Bound sockets} *)

type conv
(** A bound socket. *)

val bind : ?port:int -> stack -> conv
(** Open an endpoint; [port] defaults to an ephemeral one.
    @raise Invalid_argument if the port is taken. *)

val send : conv -> dst:Ipaddr.t -> dport:int -> string -> unit
(** Transmit one datagram. *)

val recv : conv -> Ipaddr.t * int * string
(** Block for the next datagram: source address, source port,
    payload. *)

val try_recv : conv -> (Ipaddr.t * int * string) option
val close : conv -> unit

type counters = {
  mutable dg_sent : int;
  mutable dg_rcvd : int;
  mutable dg_dropped_noport : int;
}

val counters : stack -> counters
