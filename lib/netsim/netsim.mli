(** Simulated physical network media.

    Stands in for the paper's hardware: the LANCE Ethernet (section
    2.2), the Cyclone VME fiber boards (section 7), and the RS232/ISDN
    serial lines (section 1).  Each medium models wire bandwidth,
    propagation latency, and (for Ethernet) random frame loss drawn from
    the engine's seeded RNG, so behaviour is reproducible.

    Media deliver to receive callbacks outside any process context —
    the moral equivalent of an interrupt.  Drivers built on top must
    obey the paper's rule that "the interrupt routine may not allocate
    blocks or call a put routine": in practice they hand the frame to a
    queue or mailbox that wakes a kernel process. *)

module Eaddr : sig
  type t = private string
  (** A 48-bit Ethernet address as 12 lowercase hex digits, e.g.
      ["0800690222f0"]. *)

  val of_string : string -> t
  (** @raise Invalid_argument unless 12 hex digits. *)

  val to_string : t -> string
  val broadcast : t
  val pp : Format.formatter -> t -> unit
end

module Fault : sig
  (** A fault-injection schedule for a simulated medium.

      One [Fault.t] hangs off every Ethernet segment (and every station
      on it), and off every Datakit switch (and every line on it).  A
      schedule can combine:

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
      from the engine's seeded RNG at {e transmit} time, in attachment
      order, and a probability of zero draws nothing — so same-seed
      runs are byte-identical, and an empty schedule leaves the RNG
      stream exactly as it was before this layer existed.

      Every injected fault is routed through one choke point that bumps
      the would-be receiver's stats and emits a tagged
      {!Obs.Event.Fault} event ([fault.drop], [fault.dup],
      [fault.reorder], [fault.partition] counters). *)

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

  val clear_burst : t -> unit

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

  val clear_filter : t -> unit

  val active : t -> bool
  (** Whether any fault is configured (fast-path guard). *)

  val decide : t -> Random.State.t -> now:float -> string -> verdict
  (** One per-frame decision; steps the burst chain.  Exposed for the
      media implementations and for determinism tests. *)

  val combine : verdict -> verdict -> verdict
  (** Merge a segment-level and a station-level verdict: first drop
      wins; dup/reorder or; delays add. *)

  val describe : t -> string
  (** Human-readable one-line summary of the schedule. *)
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
    mutable overflows : int;  (** frames dropped because rx was full *)
    mutable drops_injected : int;
        (** injected drops of every kind (loss, burst, partition,
            filter) this station would have received *)
    mutable dups_injected : int;  (** injected duplicate deliveries *)
    mutable reorders_injected : int;  (** injected late deliveries *)
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

  val set_rx : nic -> (frame -> unit) -> unit
  (** Delivery callback: called once per frame addressed to this
      station (unicast match, broadcast, or any frame if promiscuous).
      Interrupt context: must not block. *)

  val set_promiscuous : nic -> bool -> unit

  val transmit : nic -> frame -> unit
  (** Queue a frame for the wire.  The segment serializes transmissions
      (one frame on the wire at a time) and delivers after transmission
      plus propagation time; lost frames count as [crc_errors] at every
      would-be receiver. *)

  val min_frame : int
  (** 60 bytes: shorter payloads are padded on the wire for timing
      purposes. *)

  val header_bytes : int
  (** 14-byte Ethernet header + 4-byte CRC counted in wire time. *)
end

module Fiber : sig
  (** A Cyclone-style point-to-point fiber link: reliable, in-order
      message delivery with very low per-message overhead ("copying
      messages from system memory to fiber without intermediate
      buffering"). *)

  type endpoint

  val create_pair :
    ?bandwidth_bps:float ->
    ?latency:float ->
    name:string ->
    Sim.Engine.t ->
    endpoint * endpoint
  (** [bandwidth_bps] defaults to 125e6, [latency] to 10e-6 s. *)

  val send : endpoint -> string -> unit
  (** Transmit one delimited message to the peer. *)

  val set_rx : endpoint -> (string -> unit) -> unit
  val name : endpoint -> string
  val engine : endpoint -> Sim.Engine.t
end

module Serial : sig
  (** An RS232/ISDN-style full-duplex byte pipe clocked at a baud
      rate. *)

  type endpoint

  val create_pair :
    ?baud:int -> name:string -> Sim.Engine.t -> endpoint * endpoint
  (** [baud] defaults to 9600; 10 bit times per byte (start/stop). *)

  val set_baud : endpoint -> int -> unit
  (** Reclock both directions — what writing [b1200] to [/dev/eia1ctl]
      does. *)

  val baud : endpoint -> int
  val send : endpoint -> string -> unit
  val set_rx : endpoint -> (string -> unit) -> unit
  val engine : endpoint -> Sim.Engine.t
end
