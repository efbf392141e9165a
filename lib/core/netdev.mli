(** Protocol devices (paper section 2.3).

    "Network connections are represented as pseudo-devices called
    protocol devices ... All protocol devices look identical so user
    programs contain no network-specific code."

    Each protocol device serves the canonical tree

    {v
    /clone
    /0/ctl  /0/data  /0/listen  /0/local  /0/remote  /0/status  /0/stats
    /1/...
    v}

    with the paper's semantics: opening [clone] reserves an unused
    connection and yields its [ctl] file; reading that file returns the
    ASCII connection number; writing [connect <addr>] establishes a
    call; writing [announce <addr>] registers a listener; opening
    [listen] blocks for an incoming call and the descriptor returned
    points at the {e new} connection's ctl file.

    The same device code serves IL, TCP, UDP, and Datakit/URP through a
    small record of protocol operations — the network-specific part is
    only address parsing and the conversation calls. *)

(** The calls on one protocol's conversations (of type ['c]). *)
type 'c conv_ops = {
  cv_read : 'c -> count:int -> string;
      (** blocking; respects message delimiters where the protocol has
          them; [""] at end of conversation *)
  cv_write : 'c -> string -> (int, string) result;
  cv_local : 'c -> string;
  cv_remote : 'c -> string;
  cv_status : 'c -> string;
  cv_stats : 'c -> string;
      (** per-connection statistics, one ["name value\n"] line per
          counter — the [stats] file *)
  cv_close : 'c -> unit;
  cv_hangup : 'c -> unit;
      (** the ctl message [hangup]: close, and end any read blocked on
          the conversation *)
}

(** A conversation with its protocol's calls. *)
type conv = Conv : 'c conv_ops * 'c -> conv

type listener_ops = {
  ln_accept : unit -> (conv, string) result;  (** blocks *)
  ln_set_backlog : int -> (unit, string) result;
      (** the ctl message [backlog n]; protocols without a bounded
          accept queue answer [Error] *)
  ln_status : unit -> string;
      (** announced-state detail for the [status] file, e.g.
          ["17008 Announced backlog 16 queued 0 refused 0"] *)
  ln_close : unit -> unit;
}

type proto = {
  pr_name : string;  (** directory name under /net: "il", "tcp", ... *)
  pr_connect : string -> (conv, string) result;
      (** [addr] is the protocol-specific ASCII string CS produced,
          e.g. ["135.104.9.31!17008"]; blocks until established *)
  pr_announce : string -> (listener_ops, string) result;
}

type node

val fs : proto -> node Ninep.Server.fs
(** The device as a kernel-resident file server: one {!Ninep.Devtab}
    table whose conversations are the connections. *)

val mount : Vfs.Env.t -> proto -> unit
(** Serve the device tree at [/net/<pr_name>] (creating the directory
    if needed). *)

(** {1 Protocol adapters} *)

val ip_proto : ('c, 'p) Inet.Conv.stack -> proto
(** IL, TCP, tcpcc or UDP: the device named after the stack, its calls
    those of the conversation core and the protocol's table. *)

val dk_proto : Dk.Switch.line -> proto
