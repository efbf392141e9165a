(** Canned worlds for examples, tests, and benchmarks.

    {!bell_labs} reproduces the environment of the paper's examples: a
    CPU server [helix] on both the Ethernet and Datakit, an auth
    server [musca], a terminal [philw-gnot] that has {e only} a Datakit
    connection (the gateway example of section 6.1), and a DNS zone
    with [ai.mit.edu] behind a delegation, all described by an ndb in
    the paper's own format. *)

type t = {
  eng : Sim.Engine.t;
  ether : Netsim.Ether.t;
      (** flat worlds: the one wire; routed worlds: the first segment *)
  segments : (string * Netsim.Ether.t) list;
      (** routed worlds: one Ethernet per non-dk [ipnet] entry, keyed by
          the subnet's name *)
  dk : Dk.Switch.t;
  db : Ndb.t;
  mutable hosts : (string * Host.t) list;
}

val create :
  ?seed:int ->
  ?sched:Sim.Sched.policy ->
  ?ether_loss:float ->
  ?ether_bandwidth:float ->
  db:Ndb.t ->
  unit ->
  t
(** Fresh media + engine; no hosts yet.  [sched] picks the engine's
    same-time tie-break policy (default FIFO) — schedule exploration
    builds whole worlds under adversarial orderings through this. *)

val routed :
  ?seed:int ->
  ?sched:Sim.Sched.policy ->
  ?ether_bandwidth:float ->
  ?dk_bandwidth:float ->
  db:Ndb.t ->
  unit ->
  t
(** A multi-segment internet: one Ethernet segment per [ipnet] entry in
    [db] (named after it), except [medium=dk] subnets, which gateway
    hosts reach as IP tunnels over the Datakit switch.  Hosts added to
    this world wire each NIC to the segment its address belongs to. *)

val autoroute : t -> unit
(** Fill every gateway's route table from the booted topology: breadth
    first over the gateway graph (adjacent = interfaces on the same
    subnet), each subnet a gateway is not on gets a route via the first
    hop toward the nearest gateway that is.  Call after the last
    {!add_host}.  Leaf hosts need nothing — their inherited [ipgw]
    default route points at their segment's gateway. *)

val add_host :
  ?il_config:Inet.Il.config ->
  ?tcp_config:Inet.Tcp.config ->
  ?tcpcc_config:Inet.Tcp.config ->
  ?dns_server:bool ->
  t ->
  string ->
  Host.t
(** Boot a host from its database entry and remember it. *)

val host : t -> string -> Host.t
(** @raise Not_found *)

val run : ?until:float -> t -> unit

val ether_faults : t -> Netsim.Fault.t
(** The Ethernet segment's fault schedule — shorthand for
    [Netsim.Ether.faults t.ether]. *)

val segment_faults : t -> string -> Netsim.Fault.t
(** A named segment's fault schedule (routed worlds).
    @raise Not_found *)

val dk_faults : t -> Netsim.Fault.t
(** The Datakit switch's fault schedule. *)

val cluster : ?seed:int -> ?sched:Sim.Sched.policy -> ?n:int -> unit -> t
(** A booted cluster of [n] (default 4) hosts for the distributed
    name-space scenarios: every host serves exportfs, carries seed
    files [/srv/motd] ("hello from cN") and [/srv/cN] ("cN"), and has
    empty [/n/next] and [/u] directories ready to be mount points for
    import chains and union mounts. *)

val host_faults : t -> string -> Netsim.Fault.t
(** The named host's {e per-station} fault schedule (its primary NIC's
    rx side): partition one machine while the rest of the segment keeps
    talking.  @raise Failure if the host has no NIC. *)

(** {1 The diskless fleet (boot-storm topology)} *)

val fleet_origin : string
(** ["origin"], the fleet's one file server. *)

val terminal_sys : int -> int -> string
(** ["tmNN-III"], terminal [i] of rack [k]. *)

val fleet_ndb : ?racks:int -> ?terminals:int -> unit -> string
(** The fleet in ndb form: a [spine] subnet (10.90/16) carrying the
    origin and one gateway per rack, plus a leaf subnet per rack
    (10.(30+k)/16, [ipgw] at the rack gateway) of [terminals] diskless
    terminals each carrying [bootf=/mips/9power].  The rack's spine NIC
    is listed first so its primary stack — the one its dialer and
    listeners ride — sits on the spine. *)

type fleet = {
  f_world : t;
  f_origin : Host.t;
  f_racks : string list;
  f_terminals : (string * string) list;
      (** [(rack sys, terminal sys)] pairs, in rack-major order *)
  f_caches : (string, Cfs.t) Hashtbl.t;
      (** rack sys → its shared cache tier, filled once each rack's
          cfsd has dialed the origin (by virtual time ~1s) *)
}

val fleet :
  ?seed:int ->
  ?sched:Sim.Sched.policy ->
  ?racks:int ->
  ?terminals:int ->
  ?rack_config:Cfs.config ->
  ?tap:(string -> Ninep.Transport.t -> Ninep.Transport.t) ->
  ?ether_bandwidth:float ->
  unit ->
  fleet
(** A booted fleet: the origin serves the {!Bootstage} file set over
    exportfs; each rack gateway runs a cfsd that dials the origin,
    interposes a shared {!Cfs} (configured by [rack_config], its
    upstream transport wrapped by [tap] — the benches count round
    trips there), mounts the cache's ctl directory at [/mnt/cfs], and
    listens on [il!*!9fs] serving the cache's 9P face to its
    terminals.  Terminals are booted but {e not} wired: a storm driver
    dials [il!rkNN!9fs] from each terminal when it powers on.
    Routing comes from {!autoroute}. *)

val bell_labs_ndb : string
(** The ndb text for the canonical world (paper-style entries). *)

val bell_labs :
  ?seed:int ->
  ?sched:Sim.Sched.policy ->
  ?ether_loss:float ->
  ?cpu_commands:(string * Cpu_cmd.command) list ->
  unit ->
  t
(** The canonical world, fully booted: hosts [helix] (CPU server with
    the cpu service — stock commands hostname/echo/cat/wc plus
    [cpu_commands] — ether + dk, DNS server, exportfs + echo services),
    [musca] (ether + dk, exportfs + echo), [bootes] (the network's
    file server), [ai] (ether, a distant Internet host), and
    [philw-gnot] (Datakit only). *)
