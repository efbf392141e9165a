(** Per-host IP routing (paper section 6: gateway machines join the
    Ethernet segments and the Datakit fabric into one routed internet).

    A {e node} owns one route table and the host's IP interfaces.  The
    table holds on-link, via-gateway, and blackhole entries matched by
    longest prefix; the node is installed into each {!Inet.Ip.stack} as
    both the output hook (route selection for locally-originated
    packets) and the forward hook (transit packets arriving from the
    wire).  Hosts with one interface refuse transit; attaching a second
    interface turns forwarding on — that host {e is} a gateway.

    Every packet the layer discards goes through one choke point that
    bumps a node counter, emits an [Obs.Event.Packet] with
    [op = Drop reason], and bumps the trace counter [ip.<reason>]
    ([no_route], [ttl_exceeded], [blackhole], [transit_refused],
    [bad_header]) — routed topologies never drop silently. *)

module Table : sig
  type target =
    | Onlink of string
        (** directly reachable on the named interface; the next hop is
            the destination itself *)
    | Via of Inet.Ipaddr.t  (** forward to this gateway *)
    | Blackhole  (** discard (counted, evented) *)

  type entry = {
    r_dest : Inet.Ipaddr.t;
    r_mask : Inet.Ipaddr.t;
    r_target : target;
    mutable r_uses : int;
  }

  type t

  val create : unit -> t

  val add : t -> dest:Inet.Ipaddr.t -> mask:Inet.Ipaddr.t -> target -> unit
  (** Insert (replacing any entry with the same dest/mask).  [dest] is
      masked down, so [10.1.2.3/16] stores as [10.1.0.0/16]. *)

  val del : t -> dest:Inet.Ipaddr.t -> mask:Inet.Ipaddr.t -> bool
  (** [false] when no such entry existed. *)

  val flush : t -> unit

  val lookup : t -> Inet.Ipaddr.t -> entry option
  (** Longest-prefix match; insertion order breaks equal-length ties.
      Bumps nothing — resolution through the node counts uses. *)

  val entries : t -> entry list
  (** Most-specific first. *)
end

type iface = {
  if_name : string;
  if_addr : Inet.Ipaddr.t;
  if_mask : Inet.Ipaddr.t;
  if_emit : nexthop:Inet.Ipaddr.t -> string -> unit;
      (** transmit one raw IP packet toward [nexthop] *)
  if_stack : Inet.Ip.stack option;
      (** present on Ethernet interfaces so forwarding keeps feeding the
          stack's [ip_forwarded]/[ip_ttl_exceeded] counters *)
}

type counters = {
  mutable forwarded : int;
  mutable no_route : int;
  mutable ttl_exceeded : int;
  mutable blackholed : int;
  mutable transit_refused : int;
  mutable bad_header : int;
  mutable tun_tx : int;  (** IP packets sent into Datakit tunnels *)
  mutable tun_rx : int;  (** IP packets received from Datakit tunnels *)
}

type t

val create : name:string -> Sim.Engine.t -> t
val name : t -> string
val table : t -> Table.t
val stats : t -> counters
val ifaces : t -> iface list

val set_deliver : t -> (string -> unit) -> unit
(** Where packets for any local interface address land — normally
    [Inet.Ip.deliver_raw] on the host's primary stack. *)

val forwarding : t -> bool
(** Forwarding turns on automatically at the second interface. *)

val add_iface : t -> iface -> unit
(** Register an interface and its on-link route. *)

val attach_stack : t -> ifname:string -> Inet.Ip.stack -> iface
(** Wrap an Ethernet IP stack as an interface: adds it (plus its
    on-link route), and installs the node as the stack's route-out and
    forward hooks. *)

val dk_tunnel_listen :
  t ->
  ifname:string ->
  addr:Inet.Ipaddr.t ->
  mask:Inet.Ipaddr.t ->
  Dk.Switch.line ->
  service:string ->
  iface
(** The answering end of a point-to-point IP-over-Datakit tunnel:
    announces [service] on [line], accepts one call, then carries raw
    IP packets as Datakit cells, one each.  Packets routed into the
    tunnel before establishment are queued and flushed.  The tunnel's
    process only places the call; received packets reach {!input}
    from the switch's delivery event. *)

val dk_tunnel_dial :
  t ->
  ifname:string ->
  addr:Inet.Ipaddr.t ->
  mask:Inet.Ipaddr.t ->
  Dk.Switch.line ->
  dest:string ->
  service:string ->
  iface
(** The calling end; retries while the listener has not announced. *)

val output : t -> string -> Inet.Ipaddr.t -> unit
(** Route one locally-originated raw IP packet (the stack's route_out
    hook).  Destinations local to the node loop back on the next tick.
    @raise Inet.Ip.No_route when the table has no matching entry (after
    counting and eventing the drop).  Blackhole routes drop silently
    toward the caller. *)

val input : t -> ingress:iface -> string -> unit
(** A packet from the wire not claimed by the receiving stack: deliver
    locally, or decrement TTL and forward (gateways), or refuse
    (hosts).  All discards go through the choke point.  This entry
    decodes the header itself (tunnel ingress); Ethernet interfaces from
    {!attach_stack} hand over the header their stack already decoded.
    A forwarded packet costs one copy: the TTL and checksum are patched
    in it, and [raw] is never modified. *)

val dump : t -> string
(** The /net/iproute text: interfaces, the table (most-specific first,
    with use counts), and the drop/forward counters. *)

val ctl : t -> string -> (string, string) result
(** The /net/iproute control grammar: [add dest mask gateway],
    [add dest mask onlink ifname], [add dest mask blackhole],
    [del dest mask], [flush]; an empty request reads as {!dump}. *)
