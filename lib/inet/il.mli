(** IL, the Internet Link protocol (paper section 3).

    "IL is a lightweight protocol designed to be encapsulated by IP.
    It is a connection-based protocol providing reliable transmission
    of sequenced messages between machines."  Properties implemented
    here, all from the paper:

    - reliable datagram service with sequenced delivery (each write is
      one delimited message; reads never cross a message boundary);
    - runs over IP (protocol number 40), using IP fragmentation for
      messages larger than the MTU;
    - no flow control, but "a small outstanding message window prevents
      too many incoming messages from being buffered; messages outside
      the window are discarded and must be retransmitted";
    - two-way handshake generating initial sequence numbers at each end;
    - {e no blind retransmission}: on timeout the sender transmits a
      small [query] carrying its sequence state; the peer answers with
      a [state] message and only the messages the peer is actually
      missing are resent — "this allows the protocol to behave well in
      congested networks, where blind retransmission would cause
      further congestion";
    - adaptive timeouts from a round-trip timer, "to perform well on
      both the Internet and on local Ethernets".

    The wire format is the historical one: an 18-byte header
    [sum len type spec srcport dstport id ack] in front of the data. *)

type conv
(** One conversation; it embeds the core's {!Conv.ep}. *)

type priv
(** IL's per-stack data: configuration and counters. *)

type stack = (conv, priv) Conv.stack
(** The per-host IL protocol instance: the conversation core with IL's
    table, so every shared call ({!Conv.listen}, {!Conv.set_backlog},
    ...) applies to it directly. *)

type listener = (conv, priv) Conv.listener

type config = {
  window : int;  (** outstanding-message window (default 20) *)
  min_timeout : float;  (** floor for the query timeout (default 0.05 s) *)
  max_timeout : float;  (** ceiling (default 4 s) *)
  death_time : float;  (** give up after this long unacked (default 30 s) *)
  ack_delay : float;  (** delayed-ack holdoff (default 0.02 s) *)
  fast_recovery : bool;
      (** receiver volunteers a [state] message on detecting a sequence
          gap (default true); disable to measure the pure
          query-timeout protocol (the ablation bench does) *)
  cpu : Sim.Cpu.t option;  (** host CPU for cost modelling *)
  cost_per_msg : float;  (** CPU seconds per packet handled *)
  cost_per_byte : float;  (** CPU seconds per payload byte *)
}

val default_config : config

type counters = {
  mutable msgs_sent : int;
  mutable msgs_rcvd : int;
  mutable bytes_sent : int;
  mutable bytes_rcvd : int;
  mutable retransmits : int;
  mutable retransmitted_bytes : int;
  mutable queries_sent : int;
  mutable dups_dropped : int;
  mutable out_of_window : int;
  mutable resets : int;
  mutable rtt_samples : int;
      (** acks that actually updated the RTT estimate — Karn's rule
          excludes any message that was retransmitted or whose timer
          fired *)
}

val attach : ?config:config -> Ip.stack -> stack
(** Register IL with the IP stack.  One per host. *)

val counters : stack -> counters

val connect : ?lport:int -> stack -> raddr:Ipaddr.t -> rport:int -> conv
(** {!Conv.connect}. *)

val announce : ?backlog:int -> stack -> port:int -> listener
(** {!Conv.announce}: a Sync beyond the backlog is answered with a
    reset. *)

val refusals : stack -> int
val conv_count : stack -> int
(** {!Conv.refusals} and {!Conv.conv_count}, under the names the
    benchmark reads. *)

val write : conv -> string -> unit
(** Send one message (delimited; sequenced; reliable).  Blocks while
    the outstanding-message window is full.
    @raise Conv.Hungup once the conversation is down. *)

val read : conv -> int -> string
(** Read up to [n] bytes; never crosses a message boundary; [""] at end
    of conversation. *)

val read_msg : conv -> string option
(** Read one whole message; [None] at end of conversation. *)

val close : conv -> unit
(** Orderly close (close handshake with the peer). *)
