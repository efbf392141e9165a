(** Diagnostic files under /net (paper section 2.2: the driver
    interfaces include "diagnostic interfaces for snooping software",
    and ARP is a "user-level protocol").

    - [/net/arp]: one line per resolved entry, "ip ether"; writing
      [flush] is accepted and ignored (our cache expires by TTL).
    - [/net/ipifc]: the interface's address, mask, gateway, MTU and
      packet counters as ASCII — the uniform-representation point of
      section 2.2.
    - [/net/log]: the newest events from the kernel trace
      ({!Obs.Trace}), one line each; reads report ring overflow,
      writing [clear] empties the ring, [limit N] tailors the next
      read.
    - [/net/metrics]: periodic counter snapshots as Prometheus-style
      [name value ts] lines (virtual timestamps).  Writing
      [start [interval]] arms a sampling timer, [stop] disarms it,
      [sample] takes one snapshot now, [clear] empties the ring.  A
      read with no stored samples shows one live snapshot. *)

val mount_service :
  Vfs.Env.t ->
  name:string ->
  file:string ->
  show:(unit -> string) ->
  (string -> (string, string) result) ->
  unit
(** Union a one-file {!Ninep.Devtab.service} into [/net]. *)

val mount_arp : Vfs.Env.t -> Inet.Ip.stack -> unit
val mount_ipifc : Vfs.Env.t -> Inet.Ip.stack -> unit

val mount_iproute : Vfs.Env.t -> Route.t -> unit
(** Serve the host's route table at [/net/iproute]: reads dump the
    interfaces, entries, and counters; writes speak {!Route.ctl}'s
    add/del/flush grammar. *)

val mount_log : Vfs.Env.t -> Sim.Engine.t -> unit
(** Serve the engine's attached trace at [/net/log] ("tracing
    disabled" when no trace is attached). *)

val mount_metrics : Vfs.Env.t -> Sim.Engine.t -> unit
(** Serve periodic counter time-series at [/net/metrics] ("tracing
    disabled" when no trace is attached).  Sampling is opt-in: write
    [start [interval]] to arm the sampler. *)
