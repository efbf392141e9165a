(** 9P message types and their binary marshalling (paper section 2.1).

    "The protocol consists of 17 messages describing operations on
    files and directories": the sixteen request operations — nop,
    session, attach, clone, walk, clwalk, open, create, read, write,
    clunk, remove, stat, wstat, flush, auth — plus the error response.
    This is the 1993-era dialect (today called 9P1): fixed-size fields,
    28-byte names, 116-byte stat entries, 8 KiB data payloads.

    9P "relies on several properties of the underlying transport
    protocol.  It assumes messages arrive reliably and in sequence and
    that delimiters between messages are preserved."  One marshalled
    message is exactly one transport message on IL or URP; for TCP (no
    delimiters) use {!Frame}. *)

val namelen : int
(** 28 — fixed file-name field width. *)

val errlen : int
(** 64 — fixed error-string width. *)

val dirlen : int
(** 116 — marshalled stat entry size; directories read as a sequence
    of these. *)

val maxfdata : int
(** 8192 — largest read/write payload. *)

val maxmsg : int
(** Largest possible marshalled message. *)

type qid = { qpath : int; qvers : int }
(** Unique file identity on a server.  The top bit of [qpath]
    ({!qdir_bit}) marks a directory.  Both fields are the 32-bit wire
    values, held as ints in [0, 2{^32}): a version bump wraps with
    [land 0xffffffff]. *)

val qdir_bit : int
val qid_is_dir : qid -> bool

(** Open/create modes. *)
type mode = Oread | Owrite | Ordwr | Oexec

type dir = {
  d_name : string;
  d_uid : string;
  d_gid : string;
  d_qid : qid;
  d_mode : int32;  (** permission bits; {!dmdir} marks directories *)
  d_atime : int32;
  d_mtime : int32;
  d_length : int64;
  d_type : int;  (** device type character *)
  d_dev : int;
}

val dmdir : int32
(** Directory bit in [d_mode]. *)

val pp_dir : Format.formatter -> dir -> unit
(** One [ls -l]-style line, as in the paper's examples. *)

type tmsg =
  | Tnop
  | Tauth of { afid : int; uname : string; ticket : string }
  | Tsession of { chal : string }
  | Tattach of { fid : int; uname : string; aname : string }
  | Tclone of { fid : int; newfid : int }
  | Twalk of { fid : int; name : string }
  | Tclwalk of { fid : int; newfid : int; name : string }
      (** clone+walk in one message — an optimization the mount driver
          uses heavily *)
  | Topen of { fid : int; mode : mode; trunc : bool }
  | Tcreate of { fid : int; name : string; perm : int32; mode : mode }
  | Tread of { fid : int; offset : int64; count : int }
  | Twrite of { fid : int; offset : int64; data : string }
  | Tclunk of { fid : int }
  | Tremove of { fid : int }
  | Tstat of { fid : int }
  | Twstat of { fid : int; stat : dir }
  | Tflush of { oldtag : int }

type rmsg =
  | Rnop
  | Rerror of string
  | Rauth of { afid : int; ticket : string }
  | Rsession of { chal : string }
  | Rattach of { fid : int; qid : qid }
  | Rclone of { fid : int }
  | Rwalk of { fid : int; qid : qid }
  | Rclwalk of { newfid : int; qid : qid }
  | Ropen of { fid : int; qid : qid }
  | Rcreate of { fid : int; qid : qid }
  | Rread of { data : string }
  | Rwrite of { count : int }
  | Rclunk of { fid : int }
  | Rremove of { fid : int }
  | Rstat of { stat : dir }
  | Rwstat of { fid : int }
  | Rflush

type t = T of int * tmsg | R of int * rmsg  (** tag, message *)

exception Bad_message of string

val encode : t -> string
(** @raise Bad_message if the message cannot be marshalled: a name of
    {!namelen} bytes or more, or data or a string over 65535 bytes,
    which its 2-byte count cannot carry. *)

val decode : string -> t
(** @raise Bad_message on malformed input, including a message with
    bytes missing or left over: the input must be exactly one
    message. *)

val decode_opt : string -> (t, string) result
(** {!decode} that traps {!Bad_message}: malformed input is an [Error],
    never an exception — the form kernel code reading a network should
    use. *)

val encode_dir : dir -> string
(** The 116-byte stat format (also the unit of directory reads). *)

val decode_dir : string -> int -> dir
(** [decode_dir s off].  @raise Bad_message. *)

val message_name : t -> string
(** e.g. ["Tattach"] — for traces. *)

val tmsg_name : tmsg -> string
(** e.g. ["Tattach"], without needing a tag. *)

val to_string : t -> string
(** One line for a tap or a log, e.g.
    ["Tread tag=1 fid=2 offset=0 count=8192"]: the name, the tag, then
    the fields, with data, tickets and challenges as byte counts and a
    stat by its name. *)

module Frame : sig
  (** Delimiter reconstruction for byte-stream transports (TCP): each
      message is prefixed with a 2-byte big-endian length, and a
      stateful splitter reassembles messages from arbitrary byte
      chunks. *)

  val wrap : string -> string
  (** @raise Invalid_argument for a message over 65535 bytes, which
      the 2-byte prefix cannot carry. *)

  type splitter

  val splitter : unit -> splitter

  val feed : splitter -> string -> string list
  (** Returns any complete messages (without prefixes). *)
end
