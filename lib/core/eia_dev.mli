(** The UART device (paper section 2.2): "Simple device drivers serve a
    single level directory containing just a few files; for example, we
    represent each UART by a data and a control file ... The control
    file is used to control the device; writing the string [b1200] to
    [/dev/eia1ctl] sets the line to 1200 baud." *)

type node

val fs : index:int -> Netsim.Link.endpoint -> node Ninep.Server.fs
(** Serves [eia<index>] (the data file, a byte stream to and from the
    line) and [eia<index>ctl].  Recognized control strings: [b<rate>]
    (set the baud rate), [f] (flush pending input). *)

val mount : Vfs.Env.t -> index:int -> Netsim.Link.endpoint -> unit
(** Union the two files into [/dev]. *)

val transport : Netsim.Link.endpoint -> Ninep.Transport.t
(** Run 9P directly over the line: messages travel with
    {!Ninep.Fcall.Frame} length prefixes (a byte stream keeps no
    message delimiters).  Takes over the endpoint's receive side, so
    don't combine with {!fs} on the same endpoint.  This is the
    diskless-terminal configuration — a file server (or {!Cfs} proxy)
    on one end of the wire, a mount on the other. *)
