(** Device tables: Plan 9's Dirtab and devgen.

    "Simple device drivers serve a single level directory containing
    just a few files" (section 2.2), and "all protocol devices look
    identical" (section 2.3).  A device is described by a table: an
    owner, a type letter, its top-level files and, optionally, numbered
    conversation directories that all hold one fixed list of files.
    Each file supplies only its behaviour — open, read, write, clunk —
    and {!fs} supplies the rest of the file server: qids, stats, walk
    (including [..]), directory reads, the not-open and permission
    checks, and clone.

    Every device shares one qid layout:
    {v
    the root                          dir | 1
    top-level file k (from 0)         2 + k
    conversation N's directory        dir | 0x100 * (N + 1)
    file k (from 0) of conversation N 0x100 * (N + 1) + 1 + k
    v}
    Directories have mode [dmdir|0555]; every entry's uid and gid are
    the table's owner.  A conversation's directory is named by its
    number. *)

type 'c node
(** A fid on a device whose conversations have type ['c] ([unit] for a
    device without conversations). *)

type 'c file = {
  name : string;
  perm : int32;
  open_ : 'c node -> (unit, string) result;
      (** may {!redirect} the fid, as clone and listen do *)
  read : 'c node -> offset:int64 -> count:int -> (string, string) result;
  write : 'c node -> string -> (int, string) result;
  clunk : 'c node -> unit;  (** clunk of a fid this file opened *)
}

val file : 'c file
(** The defaults, to override with [{ Devtab.file with name = ... }]:
    mode 0666, open succeeds, read returns [""], write answers
    ["permission denied"], clunk does nothing. *)

type 'c convs = {
  conv_files : 'c file array;  (** the files of every conversation *)
  number : 'c -> int;
  find : int -> 'c option;
      (** a conversation by its number, without scanning [listing]:
          server hosts hold thousands *)
  listing : unit -> 'c list;  (** the conversations, in listing order *)
  hold : 'c -> unit;
  release : 'c -> unit;
      (** "A connection remains established while any of the files in
          the connection directory are referenced": every successful
          open of a conversation's file holds the conversation, and the
          clunk of that fid releases it *)
}

type 'c t = {
  fs_name : string;
  owner : string;
  letter : char;  (** the type letter of every stat *)
  root : string;  (** the name in the root's own stat *)
  notdir : string;  (** the reply to a walk from a file *)
  top : 'c file array;  (** listed before the conversations *)
  convs : 'c convs;
}

val table : 'c t
(** The defaults, to override with [{ Devtab.table with fs_name = ... }]:
    the root is named ["."], a walk from a file answers ["file does not
    exist"], and there are no files and no conversations (no
    [conv_files], [find] finds none, and [hold] and [release] do
    nothing). *)

val fs : 'c t -> 'c node Server.fs
(** The device as a file server.  Reads and writes of an unopened fid
    answer ["not open"]; writes to a directory, create, remove and
    wstat answer ["permission denied"]; a walk to a missing name
    answers ["file does not exist"].
    A clone is unopened and carries the fid's per-open state. *)

val conv : 'c node -> 'c
(** The conversation a fid is in.
    @raise Invalid_argument on a top-level fid. *)

val redirect : 'c node -> 'c -> string -> (unit, string) result
(** [redirect n c name], as a file's [open_] result: the fid becomes
    the file [name] of conversation [c] — opening clone yields the new
    conversation's ctl file. *)

val service :
  name:string ->
  file:string ->
  show:(unit -> string) ->
  (string -> (string, string) result) ->
  unit node Server.fs
(** A one-file request/reply device, the pattern of [/net/cs]: "A
    client writes a symbolic name to /net/cs then reads one line for
    each matching destination."  The server [name] (also the owner,
    type letter ['s']) serves the single [file].  A write passes the
    trimmed request to the handler and its reply (or error, which fails
    the write) becomes the fid's own reply text, so concurrent clients
    don't interleave; reads serve that text, and a read at offset 0
    before any reply shows [show ()] — how /net/arp shows the table on
    a plain [cat]. *)
