(** TCP — the baseline the paper compares IL against (section 3).

    "TCP has a high overhead and does not preserve delimiters."  This is
    a classic early-90s TCP: three-way handshake, sequenced *byte
    stream* (no message boundaries — reads may return any byte split),
    cumulative acknowledgements, receiver-advertised flow-control
    window, adaptive retransmission timeout (Jacobson/Karn), and
    go-back-N {e blind retransmission}: on timeout every unacked byte is
    resent, and out-of-order segments are dropped — the behaviour whose
    congestion cost motivates IL's query scheme.

    Counters expose retransmitted byte counts so the [congestion] bench
    can compare the two protocols under loss.

    The same module also implements [tcpcc] ({!attach_cc}): an identical
    wire format registered as its own IP protocol, with a congestion
    window (slow start + AIMD), fast retransmit on three duplicate acks,
    NewReno-style fast recovery, and head-of-window retransmission on
    timeout instead of the go-back-N burst.  The baseline proto is
    untouched so the paper's blind-retransmission comparison stands;
    [tcpcc] is the fix for the synchronized-close congestion collapse
    the swarm bench pinned. *)

type conv
(** One conversation; it embeds the core's {!Conv.ep}. *)

type priv
(** TCP's per-stack data: name, configuration and counters. *)

type stack = (conv, priv) Conv.stack
(** A TCP instance: the conversation core with TCP's table.  Its
    {!Conv.name} is ["tcp"] or ["tcpcc"] — the /net directory name and
    counter prefix.  A SYN beyond a listener's backlog is answered with
    RST. *)

type listener = (conv, priv) Conv.listener

type config = {
  mss : int;  (** max segment payload (default 1460) *)
  send_window : int;  (** congestion/send window in bytes (default 8 * mss) *)
  recv_window : int;  (** advertised receive buffer (default 64 KiB) *)
  min_rto : float;  (** default 0.1 s *)
  max_rto : float;  (** default 8 s *)
  death_time : float;  (** default 60 s *)
  cpu : Sim.Cpu.t option;
  cost_per_seg : float;
  cost_per_byte : float;
}

val default_config : config

type counters = {
  mutable segs_sent : int;
  mutable segs_rcvd : int;
  mutable bytes_sent : int;
  mutable bytes_rcvd : int;
  mutable retransmits : int;
  mutable retransmitted_bytes : int;
  mutable out_of_order_dropped : int;
  mutable dups_dropped : int;
  mutable resets : int;
  mutable fast_retransmits : int;  (** three-dup-ack retransmissions (cc) *)
  mutable persist_probes : int;  (** zero-window probe segments sent *)
}

val attach : ?config:config -> Ip.stack -> stack
(** The minimal baseline TCP, registered as IP proto 6 under the name
    ["tcp"]. *)

val attach_cc : ?config:config -> Ip.stack -> stack
(** The congestion-controlled variant, registered as IP proto 105 under
    the name ["tcpcc"].  Both can coexist on one IP stack. *)

val counters : stack -> counters

val refusals : stack -> int
val conv_count : stack -> int
(** {!Conv.refusals} and {!Conv.conv_count}, under the names the
    benchmark reads. *)

val write : conv -> string -> unit
(** Queue bytes on the stream; blocks while the send buffer is full.
    Boundaries are {e not} preserved.  @raise Conv.Hungup once down. *)

val read : conv -> int -> string
(** Up to [n] bytes; [""] at end of stream. *)

val close : conv -> unit
(** Send FIN; the reader side keeps draining until the peer closes. *)

val cwnd : conv -> int
(** Current congestion window in bytes (meaningful on [tcpcc]). *)

(** {1 Wire format}

    Exposed for property tests: the codec must round-trip and must
    never raise on truncated or mutated bytes. *)

type segment = {
  s_sport : int;
  s_dport : int;
  s_seq : int;
  s_ack : int;
  s_flags : int;
  s_window : int;
  s_data : Block.t;  (** a view of the payload over the decoded bytes *)
}

val header_len : int
(** 20 bytes, option-free. *)

val encode :
  sport:int ->
  dport:int ->
  seq:int ->
  ack:int ->
  flags:int ->
  window:int ->
  string ->
  string
(** The segment's bytes — header and data, as IP carries them.  The
    stack itself encodes straight into the buffer it hands to
    [Ip.send]. *)

val decode : string -> segment option
(** [None] on short input or checksum failure; never raises. *)
