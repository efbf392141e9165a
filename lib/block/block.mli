(** Kernel blocks and blocking queues.

    Section 2.4 of the paper: "Information is represented by linked
    lists of kernel structures called blocks.  Each block contains a
    type, some state flags, and pointers to an optional buffer.  Block
    buffers can hold either data or control information."

    A {!t} is one block; a {!Q.t} is the read side of a pipe end or a
    device, with the paper's read/write semantics: writes of up to
    {!max_atomic_write} bytes form a single delimited block, reads stop
    at a delimiter boundary, and a full queue blocks the writer. *)

type kind =
  | Data  (** ordinary payload *)
  | Ctl  (** control directive; ASCII command for the modules *)
  | Hangup  (** synthesized end-of-stream marker sent up from a device *)

type t = {
  kind : kind;
  buf : string;
      (** shared, never written: a block is a view of [buf], so many
          blocks (and the received frame itself) may alias one string *)
  mutable rp : int;  (** read pointer: first live byte *)
  mutable wp : int;  (** write pointer: one past last live byte *)
  mutable delim : bool;  (** this block ends a message *)
}

val max_atomic_write : int
(** 32768: "A write of less than 32K is guaranteed to be contained by a
    single block." *)

val make : ?kind:kind -> ?delim:bool -> string -> t
(** Block viewing the whole string (no copy). *)

val view : string -> int -> int -> t
(** [view s off len] is a data block over [len] bytes of [s] starting
    at [off] (no copy) — how a transport hands up the payload of a
    received frame.  @raise Invalid_argument if the range is outside
    [s]. *)

val hangup : unit -> t

val len : t -> int
(** Live bytes, [wp - rp]. *)

val to_string : t -> string
(** The live bytes: a copy, or [buf] itself when the block spans all of
    it. *)

val consume : t -> int -> unit
(** Advance [rp] by [n].  @raise Invalid_argument if [n > len]. *)

val sub : t -> int -> t
(** [sub b n] is a new view of the first [n] live bytes of [b], over
    the same buffer (the delimiter flag carries over only when the
    whole block is taken). *)

val concat : t list -> t
(** Single data block with the concatenated payloads; delimited if the
    last input block was. *)

val gather : string -> int -> int -> (string * int * int) list -> string
(** [gather first off total rest] joins pieces of immutable strings
    into [total] bytes: [rest] holds the later pieces [(s, off, len)],
    newest first, and [first] from [off] supplies the bytes before
    them.  With no later pieces the result is [first] itself when it
    spans all of [first], else one [String.sub]; otherwise one copy
    into a string of exactly [total] bytes.  How reads hand out bytes
    they already hold without staging them. *)

module Q : sig
  type block = t

  type t
  (** A blocking FIFO of blocks with a byte-count limit.  Producers
      block in {!put} while the queue is over its limit; consumers block
      in {!read}/{!get} while it is empty.  [close]d queues deliver
      remaining data and then EOF. *)

  exception Closed
  (** Raised by {!put}/{!try_put} on a closed queue. *)

  val create : ?limit:int -> ?name:string -> Sim.Engine.t -> t
  (** [limit] defaults to 64 KiB of buffered payload.  [name] (default
      ["q"]) labels this queue in flow-control trace events. *)

  val put : t -> block -> unit
  (** Append a block, blocking while the queue is over its limit.
      Control and hangup blocks are never blocked (they must be able to
      overtake a congested stream). *)

  val try_put : t -> block -> bool
  (** Non-blocking append: [false] if the queue is over its limit.  For
      interrupt-context producers that must not block; they drop or
      re-stage instead. *)

  val force_put : t -> block -> unit
  (** Append ignoring the limit (never blocks, never raises on closed —
      used by devices racing a close). *)

  val get : t -> block option
  (** Remove the head block; blocks while empty; [None] at EOF (closed
      and drained, or after a [Hangup] block). *)

  val read : t -> int -> string
  (** Byte-stream read with the paper's semantics: collects up to [n]
      bytes but stops early at a delimiter boundary; [""] at EOF.
      Partial blocks stay queued.  Nothing is staged: a read one block
      answers returns that block's string itself when the read spans
      all of it (one [String.sub] otherwise), and a read that gathers
      several blocks copies once into a string of the exact size. *)

  val close : t -> unit
  (** No more {!put}s; readers drain then see EOF. *)

  val is_closed : t -> bool
  val bytes : t -> int
  val blocks : t -> int
  val full : t -> bool

  val chaos_lost_wakeup : bool ref
  (** {e Test-only.}  When set, {!put} onto a non-empty queue skips the
      reader wakeup — a planted lost-wakeup ordering bug, invisible
      under FIFO schedules in the explorer's race scenario but fatal
      under reordered ones.  It exists so the schedule explorer's
      detector can be asserted against a known bug ([p9explore
      --selftest]); never set it in real code. *)
end
