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
    IL's query scheme. *)

module Switch : sig
  type t
  type line

  type stats = {
    mutable cells_in : int;
    mutable cells_out : int;
    mutable drops_injected : int;  (** injected drops (loss, burst, partition, filter) bound for this line *)
    mutable dups_injected : int;
    mutable reorders_injected : int;
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
      {!Netsim.Fault}. *)

  val attach : t -> name:string -> line
  (** Attach a host under a hierarchical name like ["nj/astro/helix"].
      @raise Invalid_argument if the name is taken. *)

  val line_name : line -> string

  val line_faults : line -> Netsim.Fault.t
  (** This line's own fault schedule, applied (after the switch's and
      the sender's) to every cell it would receive or send —
      partitioning one line models pulling its fiber. *)

  val line_stats : line -> stats
end

module Circuit : sig
  (** Raw circuits: ordered cell delivery, no recovery.  URP sits on
      top. *)

  type t

  type cell =
    | Data of { payload : string; last : bool }
        (** [last] marks a message boundary (BOT/EOT analog) *)
    | Ctl of string  (** in-band control used by URP *)
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

  val recv : t -> cell option
  (** Next cell in order; blocks; [None] once hung up. *)

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
  (** Run URP over an established circuit (both ends must do this). *)

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
