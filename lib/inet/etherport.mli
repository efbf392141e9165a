(** The LANCE-style Ethernet driver (paper section 2.2, Figure 1).

    One driver per interface.  User-level entities open {e connections},
    each configured for an Ethernet packet type: "Writing the string
    [connect 2048] to the [ctl] file sets the packet type to 2048 and
    configures the connection to receive all IP packets sent to the
    machine."  If several connections select the same type, each
    receives a copy; type [-1] selects all packets; promiscuous
    connections see traffic addressed to other stations too.

    Reception: the medium's delivery event hands each frame to the
    connections itself.  In the paper an interrupt routine only queues
    the frame and a kernel process runs the protocol code, because
    interrupt code had to stay short; here the delivery event cannot
    be preempted and costs no virtual time, so a queue and a process
    between it and the connections would model neither CPU time nor a
    queue limit, only add an event and a process switch per frame. *)

type t
type conn

val create : Sim.Engine.t -> Netsim.Ether.nic -> t
(** Take the station's receive callback; spawns no process. *)

val engine : t -> Sim.Engine.t
val addr : t -> Netsim.Eaddr.t

val nic : t -> Netsim.Ether.nic
(** The underlying station, e.g. to drive its per-station fault
    schedule ({!Netsim.Ether.nic_faults}) and partition just this
    host. *)

val connect : t -> int -> conn
(** Allocate a kernel connection for the given packet type (-1 =
    all). *)

val clone : t -> conn
(** What opening the device's [clone] file does: a connection of type 0
    whose frames queue on its own read queue ({!rq}) as 12 hex digits
    of source address followed by the payload, dropped when the reader
    falls 128 KiB behind; each drop counts in the interface's
    [overflows].  Like Plan 9's netif, the connection lives
    while its files are open: {!release} of its last user closes it. *)

val find : t -> int -> conn option
(** The open connection with this id. *)

val rq : conn -> Block.Q.t option
(** A cloned connection's read queue; [None] for a kernel
    connection. *)

val hold : conn -> unit
(** One more open file of the connection. *)

val release : conn -> unit
(** One open file fewer; a cloned connection left with none is
    closed.  Kernel connections stay. *)

val conn_type : conn -> int
val conn_id : conn -> int
val driver : conn -> t

val set_conn_type : conn -> int -> unit
(** What writing [connect n] to an open connection's ctl file does. *)

val set_promiscuous : conn -> bool -> unit
(** Also flips the interface itself into promiscuous mode while at
    least one connection wants it. *)

val send : conn -> dst:Netsim.Eaddr.t -> string -> unit
(** Transmit a frame: "Writing the file queues a packet for
    transmission after appending a packet header containing the source
    address and packet type." *)

val set_rx : conn -> (Netsim.Ether.frame -> unit) -> unit
(** Frame consumer, invoked from the medium's delivery event: outside
    process context, so it must not block. *)

val close_conn : conn -> unit

val conns : t -> conn list
(** Open connections, lowest-numbered first: Figure 1's numbered
    directories. *)

val stats_text : t -> string
(** The ASCII contents of the [stats] file: interface address,
    input/output counts, error statistics. *)
