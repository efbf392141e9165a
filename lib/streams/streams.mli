(** Plan 9 pipes (section 2.4 of the paper).

    A pipe is two streams whose device ends feed each other.  Each end
    here is one {!Block.Q}: a write at one end puts its blocks straight
    on the other end's read queue, in the writer's context, so "most
    data is output without context switching".  A full queue blocks
    the writer; that is the only synchronization.

    The paper's pushable processing modules are not built: every other
    device in this reproduction reads from a plain {!Block.Q}, as the
    protocol devices of later Plan 9 kernels do, and 9P framing over
    byte streams is [Ninep.Fcall.Frame]. *)

type stream
(** One end of a pipe: its name ([pipe.0] or [pipe.1]), its read
    queue, its peer and whether it is closed. *)

val write : ?delim:bool -> stream -> string -> unit
(** Copy data into blocks and put them on the peer's read queue,
    blocking while that queue is full.  Writes of at most
    {!Block.max_atomic_write} bytes form a single block; larger writes
    are split, with only the final block delimited (when [delim], the
    default).  Blocks sent to a closed peer are dropped.
    @raise Block.Q.Closed once this end is closed. *)

val read : stream -> int -> string
(** Read up to [n] bytes; stops at a delimiter boundary; [""] at end
    of stream. *)

val closed : stream -> bool

val close : stream -> unit
(** This end going away: an open peer sees end of stream once it has
    drained what was written to it, and this end's own readers see end
    of stream after draining.  Idempotent. *)

module Pipe : sig
  val create : ?qlimit:int -> Sim.Engine.t -> stream * stream
  (** Two connected ends.  [qlimit] bounds each end's read queue in
      bytes (default 64 KiB).  Used by the pipe device and Table 1's
      [pipes] row. *)
end
