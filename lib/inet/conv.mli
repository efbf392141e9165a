(** One conversation core for the IP transports (paper section 2.2).

    "All protocol devices look identical": this is the part of IL, TCP
    and UDP that is the same for all three, after Plan 9's [devip.c],
    whose [Conv] and [Proto] this module's {!ep} and {!proto} follow.

    The core owns the conversation table, keyed by (local port, remote
    port, remote address), and the listener table; ephemeral port
    allocation; the active open's wait for the handshake; the backlog
    admission check; handing an established call to its caller or to
    the listener's accept queue; teardown ({!hangup}); the death timer;
    IP registration and output with the CPU cost model; and the one set
    of exceptions.

    A protocol supplies its wire format, state machine, retransmission
    timers and counters, and a function table ({!proto}).  Each of its
    conversation records embeds an {!ep}; ['p] is the protocol's own
    per-stack data ([devip.c]'s [Proto.priv]). *)

exception Refused of string
(** The peer reset or rejected the call, or it closed before it was
    established. *)

exception Timeout of string
(** The handshake's death timer expired (["il connect"], ...). *)

exception Hungup
(** A write on a conversation that is down. *)

exception Port_exhausted
(** Every ephemeral local port is in use. *)

(** Where a conversation stands, as far as the core cares: each
    protocol maps its own states onto these. *)
type phase =
  | Opening  (** handshake in progress *)
  | Open  (** established *)
  | Closing  (** close handshake in progress *)
  | Closed

type ('c, 'p) stack
(** One protocol's instance on one host. *)

type ('c, 'p) listener
(** An announced port. *)

(** The core's half of one conversation. *)
type ('c, 'p) ep = {
  cid : int;  (** conversation number, per stack *)
  stack : ('c, 'p) stack;
  lport : int;
  rport : int;
  raddr : Ipaddr.t;
  rq : Block.Q.t;  (** what the reader reads; a hangup block ends it *)
  wwait : Sim.Rendez.t;  (** writers waiting for window space *)
  estwait : Sim.Rendez.t;  (** the active open's wait *)
  mutable death_tmr : Sim.Time.timer;  (** made by {!opened} *)
  mutable death_at : float;
  mutable phase : phase;
  mutable err : string option;  (** why the conversation went down *)
  mutable lis : ('c, 'p) listener option;
      (** the listener whose backlog slot a half-open call holds *)
}

(** The protocol's function table. *)
type ('c, 'p) proto = {
  ep : 'c -> ('c, 'p) ep;
  input : ('c, 'p) stack -> src:Ipaddr.t -> Block.t -> unit;
      (** one received datagram, past the IP header *)
  start : ('c, 'p) stack -> lport:int -> raddr:Ipaddr.t -> rport:int -> 'c;
      (** the active open: make the conversation and send the first
          message; {!connect} then waits for the phase to leave
          [Opening] *)
  read : 'c -> int -> string;  (** the [data] file's read; [""] at end *)
  write : 'c -> string -> unit;  (** @raise Hungup once down *)
  close : 'c -> unit;  (** orderly close; never blocks *)
  status : 'c -> string;  (** the [status] file *)
  stats : 'c -> string;  (** the [stats] file: [name value] lines *)
  busy : 'c -> bool;
      (** work outstanding: an open conversation whose death timer
          expires while busy is aborted *)
  abort : 'c -> string option -> unit;
      (** stop the protocol's timers and {!hangup} *)
}

val create :
  Ip.stack ->
  name:string ->
  ipproto:int ->
  death_time:float ->
  cpu:Sim.Cpu.t option ->
  cost_per_msg:float ->
  cost_per_byte:float ->
  priv:'p ->
  ('c, 'p) proto ->
  ('c, 'p) stack
(** Register the protocol with IP under [ipproto].  [name] ("il",
    "tcp", ...) names the /net directory, trace events, counters and
    timer labels.  With a [cpu], every message in or out first costs
    [cost_per_msg] plus [cost_per_byte] per payload byte on it. *)

val engine : (_, _) stack -> Sim.Engine.t
val name : (_, _) stack -> string
val priv : (_, 'p) stack -> 'p
val proto : ('c, 'p) stack -> ('c, 'p) proto
val local_addr : (_, _) stack -> Ipaddr.t

val output : (_, _) stack -> dst:Ipaddr.t -> Bytes.t -> unit
(** Send one encoded message (behind [Ip.header_len] bytes of
    headroom), through the CPU model. *)

val badsum : (_, _) stack -> Block.t -> header_len:int -> unit
(** Trace a datagram that failed to decode, if its checksum is why. *)

(** {1 The conversation calls} *)

val connect : ?lport:int -> ('c, 'p) stack -> raddr:Ipaddr.t -> rport:int -> 'c
(** Active open; blocks the calling process until established.
    @raise Refused or @raise Timeout on failure.
    @raise Port_exhausted if no ephemeral port is free. *)

val alloc_port : (_, _) stack -> int
(** The next free ephemeral port (5000-64999, round robin).
    @raise Port_exhausted *)

val announce : ?backlog:int -> ('c, 'p) stack -> port:int -> ('c, 'p) listener
(** Passive open.  [backlog] (default 16) bounds calls pending accept —
    half-open handshakes plus established calls waiting in {!listen}'s
    queue; a call arriving beyond it is refused, counted in {!refused}.
    @raise Invalid_argument if the port is taken. *)

val listen : ('c, 'p) listener -> 'c
(** Block until an incoming call is established. *)

val close_listener : (_, _) listener -> unit

val set_backlog : (_, _) listener -> int -> unit
(** Adjust the accept backlog (clamped to >= 1); the ctl message
    [backlog n] lands here. *)

val backlog : (_, _) listener -> int

val queued : (_, _) listener -> int
(** Calls currently occupying backlog slots (half-open + awaiting
    accept). *)

val refused : (_, _) listener -> int
(** Calls refused because the backlog was full. *)

val refusals : (_, _) stack -> int
(** Stack-wide backlog refusals, surviving listener teardown. *)

val conv_count : (_, _) stack -> int
(** Live conversations on this stack. *)

val read : (_, _) ep -> int -> string
(** Read up to [n] bytes, stopping at a message delimiter; [""] at end
    of conversation. *)

val shutdown : ('c, 'p) stack -> 'c -> unit
(** The file face's hangup: the protocol's close, then a hangup block,
    so a process blocked reading returns at once, as Plan 9's
    [closeconv] does. *)

(** {1 For protocols} *)

val make :
  ?limit:int ->
  ?lis:('c, 'p) listener ->
  ('c, 'p) stack ->
  lport:int ->
  rport:int ->
  raddr:Ipaddr.t ->
  phase ->
  ('c, 'p) ep
(** A fresh endpoint with the next conversation number; [limit] bounds
    its read queue (default 64 KiB).  With [lis], the call takes one of
    that listener's backlog slots until {!established} or {!hangup}. *)

val insert : ('c, 'p) ep -> 'c -> unit
(** Enter the conversation in the table. *)

val opened : ('c, 'p) ep -> 'c -> state:string -> unit
(** {!insert}, make and arm the death timer, and trace the move from
    [Closed] to the protocol's first [state]. *)

val find : ('c, 'p) stack -> lport:int -> rport:int -> raddr:Ipaddr.t -> 'c option
val listener : ('c, 'p) stack -> int -> ('c, 'p) listener option

val admit : (_, _) listener -> bool
(** The backlog admission check for a new call: [false] (counted as a
    refusal) when the backlog is full. *)

val established : ('c, 'p) ep -> 'c -> unit
(** The handshake completed: wake the active opener, or hand the call
    to its listener's accept queue, which inherits the backlog slot. *)

val trace_state : (_, _) ep -> from_:string -> to_:string -> unit
(** Trace a protocol state change. *)

val arm_death : (_, _) ep -> unit
(** Push the death deadline [death_time] into the future (arming the
    timer if it is not).  When it expires, an [Opening] conversation is
    aborted with ["connect timed out"], and an open one whose protocol
    says it is [busy] with ["connection timed out"]. *)

val hangup : (_, _) ep -> string option -> unit
(** Tear down the core's half: record the reason, stop the death
    timer, release a backlog slot, leave the table, end the read queue
    and wake every waiter.  The protocol stops its own timers. *)
