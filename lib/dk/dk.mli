(** Datakit and URP (paper sections 1, 2.3, 8).

    Datakit is a circuit-switched network: hosts attach to a switch by
    named lines (addresses look like [nj/astro/helix]) and dial
    circuits to ["line!service"] destinations.  The switch delivers
    cells in order over established circuits; rejection can carry a
    reason ("networks such as Datakit accept a reason for a
    rejection").

    URP, the Universal Receiver Protocol, runs end-to-end over a
    circuit and adds reliable, sequenced, {e delimited} message
    delivery with a small window — which is why 9P could run over
    Datakit directly.  Recovery is enquiry-based (an [enq] elicits the
    receiver's state; only missing cells are resent), the ancestor of
    IL's query scheme.

    As in the paper, where URP is a stream module on the Datakit line,
    a URP conversation has no process of its own: the switch's delivery
    event hands it each cell ({!Circuit.set_rx}), and one timer slot,
    armed when a cell goes unacknowledged, carries its enquiries.  An
    idle conversation schedules nothing. *)

module Switch : sig
  type t
  type line

  type stats = {
    mutable cells_in : int;
    mutable cells_out : int;
    injected : Netsim.Fault.tally;
        (** injected faults on cells bound for this line *)
  }

  val create :
    ?bandwidth_bps:float ->
    ?latency:float ->
    ?loss:float ->
    name:string ->
    Sim.Engine.t ->
    t
  (** [bandwidth_bps] is the per-line serialization rate (default 2e6 —
      a Datakit-era effective line speed), [latency] the switch transit
      time (default 200e-6 s), [loss] a per-cell drop probability for
      fault injection (default 0; real Datakit hardware was reliable). *)

  val engine : t -> Sim.Engine.t

  val faults : t -> Netsim.Fault.t
  (** The switch-wide fault schedule, applied to every data/control
      cell crossing the switch.  [Hangup] cells are exempt from all
      faults (losing one would wedge circuit teardown; the real switch
      tore circuits down out of band).  Same determinism contract as
      {!Netsim.Fault}.  A {!Netsim.Fault.set_filter} hook sees a data
      cell's whole message, a packet cell's packet and a control
      cell's text form (["ack 3"], ["enq"], ["echo 3"], ["close"]). *)

  val attach : t -> name:string -> line
  (** Attach a host under a hierarchical name like ["nj/astro/helix"].
      @raise Invalid_argument if the name is taken. *)

  val line_name : line -> string
  val line_stats : line -> stats
end

module Circuit : sig
  (** Raw circuits: ordered cell delivery, no recovery.  URP sits on
      top. *)

  type t

  type ctl =
    | Ack  (** every cell up to [seq] arrived *)
    | Enq  (** asks the receiver for its state *)
    | Echo  (** the answer to [Enq]: the last in-order cell, [seq] *)
    | Close  (** the sender closed the conversation *)

  type cell =
    | Data of { payload : string; off : int; len : int; seq : int; last : bool }
        (** A URP data cell: a view of [len] bytes of [payload] from
            [off], so sending one copies nothing.  [seq] is the cell's
            sequence number mod 256; [last] marks a message boundary
            (BOT/EOT analog).  It costs the line [len] bytes, a 2-byte
            header and 4 bytes of framing. *)
    | Packet of string
        (** a whole packet in one cell (the IP-over-Datakit tunnel);
            [String.length] bytes plus 4 of framing *)
    | Ctl of { op : ctl; seq : int }
        (** in-band control used by URP; it costs the line the bytes
            of its text form plus 4 *)
    | Hangup

  exception Rejected of string
  (** Call rejected; carries the reason given by the callee. *)

  exception No_such_line of string

  type incoming
  (** A call delivered to a listener, not yet accepted. *)

  val dial : Switch.line -> dest:string -> service:string -> t
  (** Place a call; blocks the calling process until accepted.
      @raise Rejected / @raise No_such_line on failure. *)

  val announce : Switch.line -> service:string -> incoming Sim.Mbox.t
  (** Listen for calls to [service]; the service ["*"] receives every
      call whose service has no explicit listener.
      @raise Invalid_argument if already announced. *)

  val caller : incoming -> string
  (** The calling line's name. *)

  val service : incoming -> string

  val accept : incoming -> t
  val reject : incoming -> reason:string -> unit

  val send : t -> cell -> unit
  (** Queue a cell for the circuit (never blocks; the wire paces
      itself). *)

  val set_rx : t -> (cell -> unit) -> unit
  (** Hand every later cell, in order, straight to the callback from
      the switch's delivery event: no mailbox, no process.  An end
      starts with a callback that drops every cell, so call [set_rx]
      before the calling process next blocks after {!accept} returns
      or {!dial} resumes.  No cell is lost that way: the first one
      needs at least a cell time on the line, and [accept] returns,
      and [dial] resumes, sooner.  The callback runs outside process
      context, so it must not block.  A [Hangup] from the peer reaches
      it; a local {!hangup} does not call back. *)

  val hangup : t -> unit
  val peer_name : t -> string
end

module Urp : sig
  type conv

  type config = {
    cell_size : int;  (** max payload per cell (default 1024) *)
    window : int;  (** outstanding cells (default 8) *)
    min_timeout : float;  (** enq timer floor (default 0.1 s) *)
    cpu : Sim.Cpu.t option;
    cost_per_cell : float;
    cost_per_byte : float;
  }

  val default_config : config

  type counters = {
    mutable cells_sent : int;
    mutable cells_rcvd : int;
    mutable bytes_sent : int;
    mutable bytes_rcvd : int;
    mutable retransmits : int;
    mutable enqs_sent : int;
    mutable dups_dropped : int;
  }

  val over : ?config:config -> Circuit.t -> conv
  (** Run URP over an established circuit (both ends must do this).
      It spawns no process: it takes the circuit's receive callback
      ({!Circuit.set_rx}), and with a [cpu] a data cell is handled once
      the CPU has spent its cost, the cells behind it in arrival
      order.  The enquiry timer is armed when a cell goes
      unacknowledged and fires on the grid of [over]'s time plus
      multiples of [min_timeout /. 2.]; once the window has drained it
      lapses at its next point without re-arming. *)

  val counters : conv -> counters

  exception Hungup

  val write : conv -> string -> unit
  (** Send one delimited message reliably; blocks while the window is
      full. *)

  val read : conv -> int -> string
  (** Up to [n] bytes, never crossing a message boundary; [""] at
      EOF. *)

  val read_msg : conv -> string option
  val close : conv -> unit
end
