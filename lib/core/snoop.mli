(** A snoopy-style packet tap (paper section 2.2: the Ethernet driver's
    "diagnostic interfaces for snooping software").

    [start] attaches a promiscuous station to a simulated Ethernet
    segment; every frame on the wire — whoever it was addressed to —
    is rendered to text by {!render_frame} and appended to an in-memory
    capture.  The tap is passive: it never transmits, so it perturbs
    nothing, and rendering is pure string parsing so captures are
    byte-identical across same-seed runs. *)

val render_frame :
  time:float -> src:string -> dst:string -> etype:int -> string -> string
(** [render_frame ~time ~src ~dst ~etype payload], after Plan 9's
    [snoopy]: one line for a raw Ethernet payload (ARP, or IP carrying
    IL, UDP or TCP), parsed straight from the bytes.  [src] and [dst]
    are 12-hex-digit addresses.  An IL or TCP payload that
    {!Ninep.Fcall.decode} takes as exactly one 9P message is labelled
    with {!Ninep.Fcall.to_string}, so snooped cfs and exportfs traffic
    prints its fcalls.  E.g.
    {v
    0.000125 ether(080069020001 > ffffffffffff) arp who-has 10.0.0.2 tell 10.0.0.1
    0.003386 ether(0800690222f1 > 0800690222f0) ip(135.104.9.6 > 135.104.9.31) il data 5001>17007 id 7280309 ack 7669618 len 15 9p(Tread tag=6 fid=2 offset=0 count=8192)
    v} *)

type t

val start : ?addr:string -> Netsim.Ether.t -> t
(** Attach the tap to a segment, at station address [addr] (default
    ["feeddefaced0"]).
    @raise Invalid_argument if [addr] is already on the segment. *)

val stop : t -> unit
(** Pause capture (frames pass uncounted). *)

val resume : t -> unit
val dump : t -> string
(** The capture so far, one line per frame, e.g.
    {v
    0.000125 ether(080069020001 > ffffffffffff) arp who-has 10.0.0.2 tell 10.0.0.1
    v} *)

val clear : t -> unit
val frames : t -> int
(** Frames captured since [start] (survives [clear]). *)

val proto_counts : t -> (string * int) list
(** Frames per innermost protocol ("arp", "il", "udp", ...), sorted. *)

val summary : t -> string
(** [proto_counts] as ["proto count\n"] lines. *)

val mount : Vfs.Env.t -> t -> unit
(** Serve the capture at [/net/snoop]: reading returns the rendered
    frames; writing [clear]/[stop]/[start] controls the tap and
    [stats] replies with {!summary}. *)
