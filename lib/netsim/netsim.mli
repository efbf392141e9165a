(** Simulated physical network media.

    Stands in for the paper's hardware: the LANCE Ethernet (section
    2.2), and one point-to-point {!Link} for the Cyclone VME fiber
    boards (section 7) and the RS232/ISDN serial lines (section 1).
    Each medium models wire bandwidth, propagation latency, and (for
    Ethernet) random frame loss drawn from the engine's seeded RNG, so
    behaviour is reproducible.

    Media deliver to receive callbacks outside any process context —
    the moral equivalent of an interrupt, except that a delivery
    cannot be preempted and costs no virtual time.  So drivers run
    their protocol code right in the callback, where the paper's
    interrupt routine queued the frame for a kernel process; the
    callback must not block. *)

module Eaddr : sig
  type t = private int
  (** A 48-bit Ethernet address, held as an immediate int so a segment
      keys its stations on it and a frame compares addresses without
      touching memory; [(a :> int)] reads it.  Its text is 12 lowercase
      hex digits, e.g. ["0800690222f0"]. *)

  val of_string : string -> t
  (** Either case is accepted.
      @raise Invalid_argument unless 12 hex digits. *)

  val of_int : int -> t
  (** The low 48 bits of an int — how the ARP codec reads an address. *)

  val to_string : t -> string
  (** Renders afresh on every call: per-frame paths use the text each
      station keeps ({!Ether.text}) instead. *)

  val broadcast : t
end

module Fault : sig
  (** A fault-injection schedule for a simulated medium.

      One [Fault.t] hangs off every Ethernet segment (and every station
      on it), and off every Datakit switch.  A schedule can combine:

      - uniform random loss ({!set_loss});
      - Gilbert-style on/off {e burst} loss ({!set_burst}): a two-state
        chain stepped once per frame, losing frames with a separate
        probability while "in burst";
      - duplication ({!set_dup}): the copy trails the original by one
        frame time;
      - bounded reordering ({!set_reorder}): a reordered frame is
        delivered [delay] seconds late, so later frames overtake it —
        the delay bounds how far it can slip;
      - added jitter ({!set_jitter});
      - timed partitions ({!partition}) and link flaps ({!flap}): every
        frame transmitted inside a partition window is discarded;
      - a deterministic per-payload filter ({!set_filter}) for tests
        that must kill one specific packet.

      {b Determinism contract}: every probabilistic decision is drawn
      from the engine's seeded RNG at {e transmit} time, in station
      order (see {!Ether.transmit}), and a probability of zero draws
      nothing — so same-seed
      runs are byte-identical, and an empty schedule leaves the RNG
      stream exactly as it was before this layer existed.

      Every injected fault on every medium is routed through one choke
      point ({!inject}) that bumps the would-be receiver's {!tally} and
      emits a tagged {!Obs.Event.Fault} event ([fault.drop],
      [fault.dup], [fault.reorder], [fault.partition] counters). *)

  type t

  type verdict = {
    v_drop : string option;  (** reason; [None] = deliver *)
    v_dup : bool;
    v_reorder : bool;
    v_delay : float;  (** seconds added to propagation latency *)
  }

  val pass : verdict
  (** The no-fault verdict: deliver on time. *)

  val create : unit -> t
  (** An empty schedule: passes everything, draws no randomness. *)

  val set_loss : t -> float -> unit
  (** Uniform per-frame loss probability.
      @raise Invalid_argument unless in [0,1]. *)

  val set_burst : t -> p_enter:float -> p_exit:float -> loss:float -> unit
  (** Gilbert on/off loss.  Stationary burst occupancy is
      [p_enter /. (p_enter +. p_exit)]; mean burst length [1/p_exit]
      frames; frames inside a burst are lost with [loss]. *)

  val set_dup : t -> float -> unit
  (** Per-frame duplication probability. *)

  val set_reorder : ?delay:float -> t -> float -> unit
  (** Per-frame probability of delivering this frame [delay] (default
      2 ms) late, letting successors overtake it. *)

  val set_jitter : t -> float -> unit
  (** Uniform extra delivery delay in [0, jitter) seconds. *)

  val partition : t -> from_:float -> until:float -> unit
  (** Discard every frame transmitted in [[from_, until)] (absolute
      virtual time).  Windows accumulate. *)

  val heal : t -> unit
  (** Remove all partition windows. *)

  val flap : t -> from_:float -> until:float -> period:float -> down:float -> unit
  (** A link that goes dark for the first [down] fraction of every
      [period] seconds between [from_] and [until]. *)

  val partitioned : t -> float -> bool
  (** Is the medium partitioned at this time? *)

  val set_filter : t -> (string -> string option) -> unit
  (** Deterministic drop hook: called with each frame payload; return
      [Some reason] to discard it.  Runs before any random draw. *)

  val active : t -> bool
  (** Whether any fault is configured (fast-path guard). *)

  val decide : t -> Random.State.t -> now:float -> string -> verdict
  (** One per-frame decision; steps the burst chain.  Exposed for the
      media implementations and for determinism tests. *)

  val describe : t -> string
  (** Human-readable one-line summary of the schedule. *)

  type kind = Drop | Dup | Reorder

  type tally = {
    mutable drops : int;
        (** injected drops of every kind (loss, burst, partition,
            filter) *)
    mutable dups : int;  (** injected duplicate deliveries *)
    mutable reorders : int;  (** injected late deliveries *)
  }
  (** The injected faults one receiver (an Ethernet station, a Datakit
      line) was dealt. *)

  val tally : unit -> tally

  val inject :
    tally ->
    Sim.Engine.t ->
    medium:string ->
    kind ->
    reason:string ->
    src:string ->
    dst:string ->
    proto:string ->
    bytes:int ->
    lost:string ->
    unit
  (** Record one injected fault against the receiver's [tally]: with a
      trace attached, emit {!Obs.Event.Fault} (kind ["partition"] for a
      drop whose reason is ["partition"]), bump [fault.<kind>], and on
      a drop also the medium's own [lost] counter. *)
end

module Ether : sig
  (** A broadcast segment shared by every attached station. *)

  type t

  type frame = {
    src : Eaddr.t;
    dst : Eaddr.t;
    etype : int;  (** packet type, e.g. 2048 = IP, 2054 = ARP *)
    payload : string;
  }

  type nic
  (** One station's interface on a segment. *)

  type stats = {
    mutable in_packets : int;
    mutable out_packets : int;
    mutable in_bytes : int;
    mutable out_bytes : int;
    mutable crc_errors : int;  (** frames lost on the wire *)
    mutable overflows : int;
        (** frames dropped because a reader's queue was full (bumped by
            the clone connection that owns the queue) *)
    injected : Fault.tally;  (** injected faults this station was dealt *)
  }

  val create :
    ?bandwidth_bps:float ->
    ?latency:float ->
    ?loss:float ->
    ?frame_overhead:float ->
    name:string ->
    Sim.Engine.t ->
    t
  (** [bandwidth_bps] defaults to 10e6 (the paper's era), [latency] to
      50e-6 s, [loss] to 0.  [frame_overhead] (default 0) adds a fixed
      per-frame occupancy to the medium — preamble, interframe gap, and
      controller setup, which dominated small-frame cost on 1993
      hardware. *)

  val faults : t -> Fault.t
  (** The segment-wide fault schedule, applied once per frame. *)

  val frame_proto : etype:int -> string -> string
  (** The innermost protocol a frame carries, from its type and payload
      bytes: ["arp"], ["il"], ["udp"], ["tcp"], ["ip"] (fragments and
      other protocols) or ["ether"].  Trace events and the tap's
      counts use it. *)

  val name : t -> string
  val engine : t -> Sim.Engine.t

  val attach : t -> Eaddr.t -> nic
  (** @raise Invalid_argument if the address is already on the
      segment. *)

  val nic_addr : nic -> Eaddr.t
  val nic_stats : nic -> stats

  val nic_faults : nic -> Fault.t
  (** This station's own fault schedule, applied (after the segment's)
      to every frame it would receive — partitioning one station models
      unplugging its transceiver. *)

  val text : nic -> Eaddr.t -> string
  (** An address heard on this station's segment, as 12 hex digits.
      Every station's text is rendered once, when it attaches, and
      shared from then on: the trace, the stats file, a tap and a clone
      connection's reads render nothing per frame.  Only an address no
      station on the segment owns is rendered afresh. *)

  val set_rx : nic -> (frame -> unit) -> unit
  (** Delivery callback: called once per frame addressed to this
      station (unicast match, broadcast, or any frame if promiscuous).
      Outside process context: must not block. *)

  val set_promiscuous : nic -> bool -> unit

  val transmit : nic -> frame -> unit
  (** Queue a frame for the wire.  The segment serializes transmissions
      (one frame on the wire at a time) and delivers after transmission
      plus propagation time; lost frames count as [crc_errors] at every
      would-be receiver.

      {b Address filter.}  Like the LANCE, the segment hands a station
      only the frames it wants.  The segment keys its stations by
      address and counts its promiscuous ones.  A unicast frame on a
      segment with no promiscuous station is offered to its addressee
      alone — one table lookup, whatever the number of stations; a
      frame to an address nobody owns schedules nothing.  A broadcast
      frame, or any frame on a segment with a promiscuous station, is
      offered to every wanting station in station order (newest
      attached first).  Either way the stations offered the frame are
      exactly those that want it, in the same order, so the per-station
      fault draws, and with them the seeded RNG stream and the event
      serials, are what a scan of every station would make. *)
end

module Link : sig
  (** A point-to-point full-duplex link: each direction carries one
      message at a time at [rate] bits per second, [byte_bits] bits per
      byte, and delivers it [latency] seconds after its last bit.  The
      Cyclone VME fiber of section 7 is 125e6 bits/s, 8 bits per byte
      and 10 us; an RS232 line is its baud rate, 10 bits per byte
      (start, 8 data, stop) and no latency. *)

  type endpoint

  val create_pair :
    rate:float ->
    byte_bits:int ->
    latency:float ->
    Sim.Engine.t ->
    endpoint * endpoint

  val send : endpoint -> string -> unit
  (** Transmit one message to the peer. *)

  val set_rx : endpoint -> (string -> unit) -> unit

  val set_rate : endpoint -> float -> unit
  (** Reclock both directions — what writing [b1200] to [/dev/eia1ctl]
      does. *)

  val rate : endpoint -> float
  val engine : endpoint -> Sim.Engine.t
end
