(** A host's IP layer over a simulated Ethernet (paper section 2.3's
    "Internet (IP) protocol suite" substrate).

    Handles ARP resolution on the local segment, classless subnet
    routing through one default gateway, IP header checksums, and
    fragmentation/reassembly (IL and UDP rely on IP fragmentation for
    messages larger than the medium's MTU).

    Transport handlers ({!register_proto}) run from the Ethernet's
    delivery event, outside process context, so they must not
    block. *)

type stack

val proto_il : int
(** 40 — IL's IP protocol number. *)

val proto_tcp : int
(** 6 *)

val proto_tcpcc : int
(** 105 — the congestion-controlled TCP variant.  It shares TCP's wire
    format but is demultiplexed as its own transport so both can run on
    one stack. *)

val proto_udp : int
(** 17 *)

val create :
  ?mtu:int ->
  ?gateway:Ipaddr.t ->
  addr:Ipaddr.t ->
  mask:Ipaddr.t ->
  Etherport.t ->
  stack
(** Attach an IP stack to an Ethernet driver: opens one connection for
    packet type 2048 (IP) and one for 2054 (ARP).  [mtu] defaults to
    1500 bytes of IP packet. *)

val engine : stack -> Sim.Engine.t
val addr : stack -> Ipaddr.t
val mask : stack -> Ipaddr.t
val gateway : stack -> Ipaddr.t option
val mtu : stack -> int

exception No_route of Ipaddr.t
(** Destination off-subnet and no gateway configured. *)

val send : stack -> proto:int -> dst:Ipaddr.t -> Bytes.t -> unit
(** Transmit one datagram (fragmenting if needed).  The buffer is the
    transport's message behind {!header_len} bytes of headroom: [send]
    writes the IP header into the headroom in place and, when the
    datagram fits the MTU, the buffer itself becomes the frame.  The
    caller hands the buffer over — nobody may write it afterwards, and
    readers may keep it (see DESIGN.md, "One buffer per message").
    Datagrams to the stack's own address loop back locally.  ARP misses
    queue the packet and resolve asynchronously; unresolvable
    destinations are dropped after the retry budget (a counter records
    it). *)

val register_proto :
  stack ->
  proto:int ->
  (src:Ipaddr.t -> dst:Ipaddr.t -> Block.t -> unit) ->
  unit
(** Install the handler for an IP protocol number.  The handler gets a
    view of the datagram's payload over the received frame (no copy);
    the view record is the handler's own to advance.
    @raise Invalid_argument if already registered. *)

type counters = {
  mutable ip_in : int;
  mutable ip_out : int;
  mutable ip_bad_checksum : int;
  mutable ip_no_proto : int;
  mutable ip_reasm_drops : int;
  mutable arp_misses : int;
  mutable arp_unresolved_drops : int;
  mutable ip_forwarded : int;
  mutable ip_ttl_exceeded : int;
}

val counters : stack -> counters

val arp_cache_dump : stack -> (Ipaddr.t * Netsim.Eaddr.t) list
(** For the diagnostic interfaces (paper: "user-level protocols like
    ARP" are visible through the driver's files). *)

(** {1 The routing subsystem's hooks}

    A gateway machine (the paper's subnet entries name one with
    [ipgw=]) has an interface on each network.  The [Route] library
    owns the route table and the forwarding policy; these hooks are how
    it plugs into each interface's stack.  Without them, the stack
    keeps the built-in one-gateway rule and refuses transit. *)

type header = {
  h_len : int;
  h_ipid : int;
  h_frag_off : int;  (** byte offset of this fragment *)
  h_more : bool;
  h_proto : int;
  h_src : Ipaddr.t;
  h_dst : Ipaddr.t;
}

val header_len : int
(** 20 — our headers are always option-free.  Also the headroom a
    transport leaves at the front of the buffer it hands to {!send}. *)

(** {2 Big-endian fields}

    The wire helpers every header codec here uses; 32-bit fields are
    unsigned [int]s. *)

val put16 : Bytes.t -> int -> int -> unit
val put32 : Bytes.t -> int -> int -> unit
val get16 : string -> int -> int
val get32 : string -> int -> int

val decode_header : string -> header option
(** Parse and checksum-validate an IP header; [None] when malformed.
    Kept for tools and the routing layer's rare paths (a tunnel's
    input, a drop's trace): the receive path checks the header and
    reads each field straight from the frame, allocating no record. *)

val set_route_out : stack -> (string -> Ipaddr.t -> unit) -> unit
(** Install the route-selection hook: {!send} hands it each raw
    (already fragmented) packet with the destination, instead of
    applying the built-in my-subnet-or-gateway rule. *)

val set_forward : stack -> (Ipaddr.t -> string -> unit) -> unit
(** Install the transit hook: packets arriving from the wire whose
    destination is not this stack's address are handed over raw
    (truncated to the header's length), with the header already checked
    and the destination address read from it.  The raw string is the
    received frame itself whenever no truncation was needed, and the
    hook is handed nothing else: a forward decodes no header record.
    Without the hook they are silently dropped, as hosts should. *)

val output_raw : stack -> nexthop:Ipaddr.t -> string -> unit
(** Transmit one raw IP packet toward [nexthop] on this interface's
    segment (routing already decided).  ARP resolution as {!send}. *)

val deliver_raw : stack -> string -> unit
(** Hand a raw IP packet to this stack's transports regardless of its
    destination address — multi-homed local delivery and tunnel
    receive.  Fragments reassemble; bad headers count as checksum
    errors. *)
