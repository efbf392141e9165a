let namelen = 28
let errlen = 64
let dirlen = 116
let maxfdata = 8192

type qid = { qpath : int; qvers : int }

let qdir_bit = 0x80000000
let qid_is_dir q = q.qpath land qdir_bit <> 0

type mode = Oread | Owrite | Ordwr | Oexec

(* OR of the wire mode byte meaning truncate *)
let mode_trunc = 0x10

let mode_to_int ?(trunc = false) m =
  (match m with Oread -> 0 | Owrite -> 1 | Ordwr -> 2 | Oexec -> 3)
  lor if trunc then mode_trunc else 0

let mode_of_int i =
  let trunc = i land mode_trunc <> 0 in
  match i land 3 with
  | 0 -> Some (Oread, trunc)
  | 1 -> Some (Owrite, trunc)
  | 2 -> Some (Ordwr, trunc)
  | 3 -> Some (Oexec, trunc)
  | _ -> None

type dir = {
  d_name : string;
  d_uid : string;
  d_gid : string;
  d_qid : qid;
  d_mode : int32;
  d_atime : int32;
  d_mtime : int32;
  d_length : int64;
  d_type : int;
  d_dev : int;
}

let dmdir = 0x80000000l

let pp_dir fmt d =
  let rwx shift =
    let m = (Int32.to_int d.d_mode lsr shift) land 7 in
    Printf.sprintf "%c%c%c"
      (if m land 4 <> 0 then 'r' else '-')
      (if m land 2 <> 0 then 'w' else '-')
      (if m land 1 <> 0 then 'x' else '-')
  in
  Format.fprintf fmt "%c%s%s%s %c %d %-8s %-8s %8Ld %s"
    (if Int32.logand d.d_mode dmdir <> 0l then 'd' else '-')
    (rwx 6) (rwx 3) (rwx 0)
    (Char.chr d.d_type) d.d_dev d.d_uid d.d_gid d.d_length d.d_name

(* ---- message kinds ---- *)

type tmsg =
  | Tnop
  | Tauth of { afid : int; uname : string; ticket : string }
  | Tsession of { chal : string }
  | Tattach of { fid : int; uname : string; aname : string }
  | Tclone of { fid : int; newfid : int }
  | Twalk of { fid : int; name : string }
  | Tclwalk of { fid : int; newfid : int; name : string }
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

let tmsg_name = function
  | Tnop -> "Tnop"
  | Tauth _ -> "Tauth"
  | Tsession _ -> "Tsession"
  | Tattach _ -> "Tattach"
  | Tclone _ -> "Tclone"
  | Twalk _ -> "Twalk"
  | Tclwalk _ -> "Tclwalk"
  | Topen _ -> "Topen"
  | Tcreate _ -> "Tcreate"
  | Tread _ -> "Tread"
  | Twrite _ -> "Twrite"
  | Tclunk _ -> "Tclunk"
  | Tremove _ -> "Tremove"
  | Tstat _ -> "Tstat"
  | Twstat _ -> "Twstat"
  | Tflush _ -> "Tflush"

type t = T of int * tmsg | R of int * rmsg

exception Bad_message of string

let maxmsg = 3 + 2 + 8 + 2 + maxfdata + dirlen

(* message type codes, T even / R odd, in the historical style *)
let tnop = 50
and tauth = 52
and tsession = 54
and tattach = 56
and tclone = 60
and twalk = 62
and tclwalk = 64
and topen = 66
and tcreate = 68
and tread = 70
and twrite = 72
and tclunk = 74
and tremove = 76
and tstat = 78
and twstat = 80
and tflush = 82

let rerror = 59

(* ---- little-endian primitive writers/readers ----

   The writers run over a cursor.  [encode] makes two passes over a
   message with the same writers: a sizing pass that only counts bytes,
   then a pass that fills a buffer of exactly that size — one
   allocation per message, and one description of each layout. *)

type cursor = { out : Bytes.t; mutable pos : int; sizing : bool }

let w8 b v =
  if not b.sizing then Bytes.set b.out b.pos (Char.unsafe_chr (v land 0xff));
  b.pos <- b.pos + 1

let w16 b v =
  w8 b v;
  w8 b (v lsr 8)

(* a 32-bit field is the low 32 bits of an int: qids are ints already,
   the int32 mode, perm and time fields convert in [w32l] and [r32l] *)
let w32 b v =
  w16 b (v land 0xffff);
  w16 b ((v lsr 16) land 0xffff)

let w32l b v = w32 b (Int32.to_int v)

let w64 b (v : int64) =
  w32 b (Int64.to_int v);
  w32 b (Int64.to_int (Int64.shift_right_logical v 32))

let wqid b q =
  w32 b q.qpath;
  w32 b q.qvers

let wsub b s len =
  if not b.sizing then Bytes.blit_string s 0 b.out b.pos len;
  b.pos <- b.pos + len

let wzeros b n =
  if not b.sizing then Bytes.fill b.out b.pos n '\000';
  b.pos <- b.pos + n

let wname b s =
  if String.length s >= namelen then
    raise (Bad_message ("name too long: " ^ s));
  wsub b s (String.length s);
  wzeros b (namelen - String.length s)

let werr b s =
  let n = min (String.length s) (errlen - 1) in
  wsub b s n;
  wzeros b (errlen - n)

let wstr2 b s =
  (* 2-byte count + bytes, used for data and variable strings *)
  let n = String.length s in
  if n > 0xffff then
    raise (Bad_message (Printf.sprintf "%d bytes overflow a 2-byte count" n));
  w16 b n;
  wsub b s n

let r8 s off = Char.code s.[off]
let r16 s off = r8 s off lor (r8 s (off + 1) lsl 8)

(* in [0, 2^32) *)
let r32 s off = r16 s off lor (r16 s (off + 2) lsl 16)
let r32l s off = Int32.of_int (r32 s off)

let r64 s off =
  Int64.logor
    (Int64.of_int (r32 s off))
    (Int64.shift_left (Int64.of_int (r32 s (off + 4))) 32)

let rqid s off = { qpath = r32 s off; qvers = r32 s (off + 4) }

let rname s off =
  let rec len i = if i < namelen && s.[off + i] <> '\000' then len (i + 1) else i in
  String.sub s off (len 0)

let rerrstr s off =
  let rec len i = if i < errlen && s.[off + i] <> '\000' then len (i + 1) else i in
  String.sub s off (len 0)

let need s off n what =
  if String.length s < off + n then
    raise (Bad_message ("truncated " ^ what))

(* A message is exactly its fields: bytes missing or left over mean
   the input is not 9P, which is how a tap tells 9P from look-alikes *)
let exact s n what =
  let len = String.length s in
  if len < n then raise (Bad_message ("truncated " ^ what))
  else if len > n then raise (Bad_message ("trailing bytes after " ^ what))

(* a 2-byte-counted string, always the last field of its message *)
let rstr2 s off what =
  need s off 2 what;
  let n = r16 s off in
  exact s (off + 2 + n) what;
  String.sub s (off + 2) n

(* ---- dir (stat) marshalling ---- *)

let wdir b d =
  wname b d.d_name;
  wname b d.d_uid;
  wname b d.d_gid;
  wqid b d.d_qid;
  w32l b d.d_mode;
  w32l b d.d_atime;
  w32l b d.d_mtime;
  w64 b d.d_length;
  w16 b d.d_type;
  w16 b d.d_dev

let encode_dir d =
  let b = { out = Bytes.create dirlen; pos = 0; sizing = false } in
  wdir b d;
  assert (b.pos = dirlen);
  Bytes.unsafe_to_string b.out

let decode_dir s off =
  need s off dirlen "stat";
  {
    d_name = rname s off;
    d_uid = rname s (off + namelen);
    d_gid = rname s (off + (2 * namelen));
    d_qid = rqid s (off + 84);
    d_mode = r32l s (off + 92);
    d_atime = r32l s (off + 96);
    d_mtime = r32l s (off + 100);
    d_length = r64 s (off + 104);
    d_type = r16 s (off + 112);
    d_dev = r16 s (off + 114);
  }

(* ---- top-level encode ---- *)

let write b msg =
  let tag = match msg with T (tag, _) | R (tag, _) -> tag in
  let hdr code =
    w8 b code;
    w16 b tag
  in
  (match msg with
  | T (_, t) -> (
    match t with
    | Tnop -> hdr tnop
    | Tauth { afid; uname; ticket } ->
      hdr tauth;
      w16 b afid;
      wname b uname;
      wstr2 b ticket
    | Tsession { chal } ->
      hdr tsession;
      wstr2 b chal
    | Tattach { fid; uname; aname } ->
      hdr tattach;
      w16 b fid;
      wname b uname;
      wname b aname
    | Tclone { fid; newfid } ->
      hdr tclone;
      w16 b fid;
      w16 b newfid
    | Twalk { fid; name } ->
      hdr twalk;
      w16 b fid;
      wname b name
    | Tclwalk { fid; newfid; name } ->
      hdr tclwalk;
      w16 b fid;
      w16 b newfid;
      wname b name
    | Topen { fid; mode; trunc } ->
      hdr topen;
      w16 b fid;
      w8 b (mode_to_int ~trunc mode)
    | Tcreate { fid; name; perm; mode } ->
      hdr tcreate;
      w16 b fid;
      wname b name;
      w32l b perm;
      w8 b (mode_to_int mode)
    | Tread { fid; offset; count } ->
      hdr tread;
      w16 b fid;
      w64 b offset;
      w16 b count
    | Twrite { fid; offset; data } ->
      hdr twrite;
      w16 b fid;
      w64 b offset;
      wstr2 b data
    | Tclunk { fid } ->
      hdr tclunk;
      w16 b fid
    | Tremove { fid } ->
      hdr tremove;
      w16 b fid
    | Tstat { fid } ->
      hdr tstat;
      w16 b fid
    | Twstat { fid; stat } ->
      hdr twstat;
      w16 b fid;
      wdir b stat
    | Tflush { oldtag } ->
      hdr tflush;
      w16 b oldtag)
  | R (_, r) -> (
    match r with
    | Rnop -> hdr (tnop + 1)
    | Rerror e ->
      hdr rerror;
      werr b e
    | Rauth { afid; ticket } ->
      hdr (tauth + 1);
      w16 b afid;
      wstr2 b ticket
    | Rsession { chal } ->
      hdr (tsession + 1);
      wstr2 b chal
    | Rattach { fid; qid } ->
      hdr (tattach + 1);
      w16 b fid;
      wqid b qid
    | Rclone { fid } ->
      hdr (tclone + 1);
      w16 b fid
    | Rwalk { fid; qid } ->
      hdr (twalk + 1);
      w16 b fid;
      wqid b qid
    | Rclwalk { newfid; qid } ->
      hdr (tclwalk + 1);
      w16 b newfid;
      wqid b qid
    | Ropen { fid; qid } ->
      hdr (topen + 1);
      w16 b fid;
      wqid b qid
    | Rcreate { fid; qid } ->
      hdr (tcreate + 1);
      w16 b fid;
      wqid b qid
    | Rread { data } ->
      hdr (tread + 1);
      wstr2 b data
    | Rwrite { count } ->
      hdr (twrite + 1);
      w16 b count
    | Rclunk { fid } ->
      hdr (tclunk + 1);
      w16 b fid
    | Rremove { fid } ->
      hdr (tremove + 1);
      w16 b fid
    | Rstat { stat } ->
      hdr (tstat + 1);
      wdir b stat
    | Rwstat { fid } ->
      hdr (twstat + 1);
      w16 b fid
    | Rflush -> hdr (tflush + 1)))

let encode msg =
  let sizer = { out = Bytes.empty; pos = 0; sizing = true } in
  write sizer msg;
  let b = { out = Bytes.create sizer.pos; pos = 0; sizing = false } in
  write b msg;
  Bytes.unsafe_to_string b.out

(* ---- top-level decode ---- *)

let decode s =
  need s 0 3 "header";
  let code = r8 s 0 in
  let tag = r16 s 1 in
  let o = 3 in
  if code = tnop then begin
    exact s o "Tnop";
    T (tag, Tnop)
  end
  else if code = tnop + 1 then begin
    exact s o "Rnop";
    R (tag, Rnop)
  end
  else if code = rerror then begin
    exact s (o + errlen) "Rerror";
    R (tag, Rerror (rerrstr s o))
  end
  else if code = tauth then begin
    let ticket = rstr2 s (o + 2 + namelen) "Tauth" in
    T (tag, Tauth { afid = r16 s o; uname = rname s (o + 2); ticket })
  end
  else if code = tauth + 1 then begin
    let ticket = rstr2 s (o + 2) "Rauth" in
    R (tag, Rauth { afid = r16 s o; ticket })
  end
  else if code = tsession then T (tag, Tsession { chal = rstr2 s o "Tsession" })
  else if code = tsession + 1 then R (tag, Rsession { chal = rstr2 s o "Rsession" })
  else if code = tattach then begin
    exact s (o + 2 + (2 * namelen)) "Tattach";
    T
      ( tag,
        Tattach
          {
            fid = r16 s o;
            uname = rname s (o + 2);
            aname = rname s (o + 2 + namelen);
          } )
  end
  else if code = tattach + 1 then begin
    exact s (o + 10) "Rattach";
    R (tag, Rattach { fid = r16 s o; qid = rqid s (o + 2) })
  end
  else if code = tclone then begin
    exact s (o + 4) "Tclone";
    T (tag, Tclone { fid = r16 s o; newfid = r16 s (o + 2) })
  end
  else if code = tclone + 1 then begin
    exact s (o + 2) "Rclone";
    R (tag, Rclone { fid = r16 s o })
  end
  else if code = twalk then begin
    exact s (o + 2 + namelen) "Twalk";
    T (tag, Twalk { fid = r16 s o; name = rname s (o + 2) })
  end
  else if code = twalk + 1 then begin
    exact s (o + 10) "Rwalk";
    R (tag, Rwalk { fid = r16 s o; qid = rqid s (o + 2) })
  end
  else if code = tclwalk then begin
    exact s (o + 4 + namelen) "Tclwalk";
    T
      ( tag,
        Tclwalk
          { fid = r16 s o; newfid = r16 s (o + 2); name = rname s (o + 4) } )
  end
  else if code = tclwalk + 1 then begin
    exact s (o + 10) "Rclwalk";
    R (tag, Rclwalk { newfid = r16 s o; qid = rqid s (o + 2) })
  end
  else if code = topen then begin
    exact s (o + 3) "Topen";
    match mode_of_int (r8 s (o + 2)) with
    | Some (mode, trunc) -> T (tag, Topen { fid = r16 s o; mode; trunc })
    | None -> raise (Bad_message "Topen mode")
  end
  else if code = topen + 1 then begin
    exact s (o + 10) "Ropen";
    R (tag, Ropen { fid = r16 s o; qid = rqid s (o + 2) })
  end
  else if code = tcreate then begin
    exact s (o + 2 + namelen + 5) "Tcreate";
    match mode_of_int (r8 s (o + 2 + namelen + 4)) with
    | Some (mode, _) ->
      T
        ( tag,
          Tcreate
            {
              fid = r16 s o;
              name = rname s (o + 2);
              perm = r32l s (o + 2 + namelen);
              mode;
            } )
    | None -> raise (Bad_message "Tcreate mode")
  end
  else if code = tcreate + 1 then begin
    exact s (o + 10) "Rcreate";
    R (tag, Rcreate { fid = r16 s o; qid = rqid s (o + 2) })
  end
  else if code = tread then begin
    exact s (o + 12) "Tread";
    T (tag, Tread { fid = r16 s o; offset = r64 s (o + 2); count = r16 s (o + 10) })
  end
  else if code = tread + 1 then R (tag, Rread { data = rstr2 s o "Rread" })
  else if code = twrite then begin
    let data = rstr2 s (o + 10) "Twrite" in
    T (tag, Twrite { fid = r16 s o; offset = r64 s (o + 2); data })
  end
  else if code = twrite + 1 then begin
    exact s (o + 2) "Rwrite";
    R (tag, Rwrite { count = r16 s o })
  end
  else if code = tclunk then begin
    exact s (o + 2) "Tclunk";
    T (tag, Tclunk { fid = r16 s o })
  end
  else if code = tclunk + 1 then begin
    exact s (o + 2) "Rclunk";
    R (tag, Rclunk { fid = r16 s o })
  end
  else if code = tremove then begin
    exact s (o + 2) "Tremove";
    T (tag, Tremove { fid = r16 s o })
  end
  else if code = tremove + 1 then begin
    exact s (o + 2) "Rremove";
    R (tag, Rremove { fid = r16 s o })
  end
  else if code = tstat then begin
    exact s (o + 2) "Tstat";
    T (tag, Tstat { fid = r16 s o })
  end
  else if code = tstat + 1 then begin
    exact s (o + dirlen) "Rstat";
    R (tag, Rstat { stat = decode_dir s o })
  end
  else if code = twstat then begin
    exact s (o + 2 + dirlen) "Twstat";
    T (tag, Twstat { fid = r16 s o; stat = decode_dir s (o + 2) })
  end
  else if code = twstat + 1 then begin
    exact s (o + 2) "Rwstat";
    R (tag, Rwstat { fid = r16 s o })
  end
  else if code = tflush then begin
    exact s (o + 2) "Tflush";
    T (tag, Tflush { oldtag = r16 s o })
  end
  else if code = tflush + 1 then begin
    exact s o "Rflush";
    R (tag, Rflush)
  end
  else raise (Bad_message (Printf.sprintf "unknown type %d" code))

let decode_opt s =
  match decode s with
  | msg -> Ok msg
  | exception Bad_message e -> Error e

let message_name = function
  | T (_, t) -> tmsg_name t
  | R (_, r) -> (
    match r with
    | Rnop -> "Rnop"
    | Rerror _ -> "Rerror"
    | Rauth _ -> "Rauth"
    | Rsession _ -> "Rsession"
    | Rattach _ -> "Rattach"
    | Rclone _ -> "Rclone"
    | Rwalk _ -> "Rwalk"
    | Rclwalk _ -> "Rclwalk"
    | Ropen _ -> "Ropen"
    | Rcreate _ -> "Rcreate"
    | Rread _ -> "Rread"
    | Rwrite _ -> "Rwrite"
    | Rclunk _ -> "Rclunk"
    | Rremove _ -> "Rremove"
    | Rstat _ -> "Rstat"
    | Rwstat _ -> "Rwstat"
    | Rflush -> "Rflush")

(* data and strings print as their byte counts *)
let to_string m =
  let p = Printf.sprintf in
  let qid q = p " qid=(%d,%d)" q.qpath q.qvers in
  let fields =
    match m with
    | T (_, t) -> (
      match t with
      | Tnop -> ""
      | Tauth { afid; uname; ticket } ->
        p " afid=%d uname=%s ticket[%d]" afid uname (String.length ticket)
      | Tsession { chal } -> p " chal[%d]" (String.length chal)
      | Tattach { fid; uname; aname } -> p " fid=%d uname=%s aname=%s" fid uname aname
      | Tclone { fid; newfid } -> p " fid=%d newfid=%d" fid newfid
      | Twalk { fid; name } -> p " fid=%d name=%s" fid name
      | Tclwalk { fid; newfid; name } -> p " fid=%d newfid=%d name=%s" fid newfid name
      | Topen { fid; mode; trunc } -> p " fid=%d mode=%d" fid (mode_to_int ~trunc mode)
      | Tcreate { fid; name; perm; mode } ->
        p " fid=%d name=%s perm=%lo mode=%d" fid name perm (mode_to_int mode)
      | Tread { fid; offset; count } -> p " fid=%d offset=%Ld count=%d" fid offset count
      | Twrite { fid; offset; data } ->
        p " fid=%d offset=%Ld count=%d" fid offset (String.length data)
      | Tclunk { fid } | Tremove { fid } | Tstat { fid } -> p " fid=%d" fid
      | Twstat { fid; stat } -> p " fid=%d name=%s" fid stat.d_name
      | Tflush { oldtag } -> p " oldtag=%d" oldtag)
    | R (_, r) -> (
      match r with
      | Rnop | Rflush -> ""
      | Rerror e -> " " ^ e
      | Rauth { afid; ticket } -> p " afid=%d ticket[%d]" afid (String.length ticket)
      | Rsession { chal } -> p " chal[%d]" (String.length chal)
      | Rattach { fid; qid = q } | Rwalk { fid; qid = q } | Ropen { fid; qid = q }
      | Rcreate { fid; qid = q } ->
        p " fid=%d%s" fid (qid q)
      | Rclwalk { newfid; qid = q } -> p " newfid=%d%s" newfid (qid q)
      | Rread { data } -> p " count=%d" (String.length data)
      | Rwrite { count } -> p " count=%d" count
      | Rclone { fid } | Rclunk { fid } | Rremove { fid } | Rwstat { fid } -> p " fid=%d" fid
      | Rstat { stat } -> p " name=%s" stat.d_name)
  in
  let tag = match m with T (tag, _) | R (tag, _) -> tag in
  p "%s tag=%d%s" (message_name m) tag fields

module Frame = struct
  let wrap s =
    let n = String.length s in
    if n > 0xffff then invalid_arg "Fcall.Frame.wrap: message over 65535 bytes";
    let b = Bytes.create (n + 2) in
    Bytes.set b 0 (Char.chr ((n lsr 8) land 0xff));
    Bytes.set b 1 (Char.chr (n land 0xff));
    Bytes.blit_string s 0 b 2 n;
    Bytes.unsafe_to_string b

  (* [pend] holds the bytes after the last whole message: at most one
     incomplete message, so every byte is copied a bounded number of
     times however the stream is chunked *)
  type splitter = { pend : Buffer.t }

  let splitter () = { pend = Buffer.create 64 }

  let complete p =
    let have = Buffer.length p in
    have >= 2
    && have >= 2 + ((Char.code (Buffer.nth p 0) lsl 8) lor Char.code (Buffer.nth p 1))

  let feed sp chunk =
    let p = sp.pend in
    let stream =
      if Buffer.length p = 0 then Some chunk
      else begin
        Buffer.add_string p chunk;
        if complete p then begin
          let s = Buffer.contents p in
          Buffer.clear p;
          Some s
        end
        else None
      end
    in
    match stream with
    | None -> []
    | Some s ->
      let rec split off acc =
        let rest = String.length s - off in
        let n =
          if rest < 2 then max_int
          else (Char.code s.[off] lsl 8) lor Char.code s.[off + 1]
        in
        if n <= rest - 2 then split (off + 2 + n) (String.sub s (off + 2) n :: acc)
        else begin
          Buffer.add_substring p s off rest;
          List.rev acc
        end
      in
      split 0 []
end
