(* Property tests over the codecs: the 9P marshaller, the IP address
   printer/parser, and the ndb tuple-file parser.  Two kinds of claim:

   - round trip: anything we encode comes back identical through the
     decoder (checked per message type, so a new constructor with a
     broken arm cannot hide behind the generator's dice);
   - never raise: the decoders are fed from the network, so arbitrary,
     truncated, or bit-flipped bytes must produce a clean error, never
     an exception. *)

module F = Ninep.Fcall

let gen = QCheck.Gen.generate1

(* ---- generators: one canonical-form value per field kind ---- *)

(* names are NUL-padded 28-byte fields: anything shorter than namelen
   and NUL-free round-trips *)
let name_gen =
  QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (0 -- (F.namelen - 1)))

(* errors are NUL-padded 64-byte fields *)
let err_gen =
  QCheck.Gen.(string_size ~gen:(char_range ' ' '~') (0 -- (F.errlen - 1)))

(* counted strings (tickets, challenges, data) carry arbitrary bytes *)
let bytes_gen n = QCheck.Gen.(string_size ~gen:(char_range '\000' '\255') (0 -- n))
let w16_gen = QCheck.Gen.int_bound 0xffff

(* a 32-bit wire field as the program holds a qid or an address: an
   int anywhere in [0, 2^32), the top bit included *)
let u32_gen =
  QCheck.Gen.(
    map2 (fun hi lo -> (hi lsl 16) lor lo) (int_bound 0xffff) (int_bound 0xffff))

(* the mode, perm and time fields, which stay int32 *)
let bits32_gen = QCheck.Gen.map Int32.of_int u32_gen

let int64_gen =
  QCheck.Gen.(
    map2
      (fun hi lo -> Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))
      u32_gen u32_gen)

let qid_gen =
  QCheck.Gen.(map2 (fun qpath qvers -> { F.qpath; qvers }) u32_gen u32_gen)

let mode_gen = QCheck.Gen.oneofl [ F.Oread; F.Owrite; F.Ordwr; F.Oexec ]

let dir_gen =
  QCheck.Gen.(
    map2
      (fun (name, uid, gid, qid) (mode, atime, mtime, length, ty, dev) ->
        {
          F.d_name = name;
          d_uid = uid;
          d_gid = gid;
          d_qid = qid;
          d_mode = mode;
          d_atime = atime;
          d_mtime = mtime;
          d_length = length;
          d_type = ty;
          d_dev = dev;
        })
      (quad name_gen name_gen name_gen qid_gen)
      (map3
         (fun (mode, atime) (mtime, length) (ty, dev) ->
           (mode, atime, mtime, length, ty, dev))
         (pair bits32_gen bits32_gen)
         (pair bits32_gen int64_gen)
         (pair w16_gen w16_gen)))

(* every message type, exercised one by one: [constructors] lists a
   generator per arm, so adding a constructor without extending this
   list is caught by the exhaustiveness check in [all_constructors] *)
let tmsg_constructors : (string * F.tmsg QCheck.Gen.t) list =
  let open QCheck.Gen in
  [
    ("Tnop", return F.Tnop);
    ( "Tauth",
      map3
        (fun afid uname ticket -> F.Tauth { afid; uname; ticket })
        w16_gen name_gen (bytes_gen 64) );
    ("Tsession", map (fun chal -> F.Tsession { chal }) (bytes_gen 64));
    ( "Tattach",
      map3
        (fun fid uname aname -> F.Tattach { fid; uname; aname })
        w16_gen name_gen name_gen );
    ( "Tclone",
      map2 (fun fid newfid -> F.Tclone { fid; newfid }) w16_gen w16_gen );
    ("Twalk", map2 (fun fid name -> F.Twalk { fid; name }) w16_gen name_gen);
    ( "Tclwalk",
      map3
        (fun fid newfid name -> F.Tclwalk { fid; newfid; name })
        w16_gen w16_gen name_gen );
    ( "Topen",
      map3
        (fun fid mode trunc -> F.Topen { fid; mode; trunc })
        w16_gen mode_gen bool );
    ( "Tcreate",
      map3
        (fun fid (name, perm) mode -> F.Tcreate { fid; name; perm; mode })
        w16_gen (pair name_gen bits32_gen) mode_gen );
    ( "Tread",
      map3
        (fun fid offset count -> F.Tread { fid; offset; count })
        w16_gen int64_gen w16_gen );
    ( "Twrite",
      map3
        (fun fid offset data -> F.Twrite { fid; offset; data })
        w16_gen int64_gen (bytes_gen F.maxfdata) );
    ("Tclunk", map (fun fid -> F.Tclunk { fid }) w16_gen);
    ("Tremove", map (fun fid -> F.Tremove { fid }) w16_gen);
    ("Tstat", map (fun fid -> F.Tstat { fid }) w16_gen);
    ( "Twstat",
      map2 (fun fid stat -> F.Twstat { fid; stat }) w16_gen dir_gen );
    ("Tflush", map (fun oldtag -> F.Tflush { oldtag }) w16_gen);
  ]

let rmsg_constructors : (string * F.rmsg QCheck.Gen.t) list =
  let open QCheck.Gen in
  [
    ("Rnop", return F.Rnop);
    ("Rerror", map (fun e -> F.Rerror e) err_gen);
    ( "Rauth",
      map2 (fun afid ticket -> F.Rauth { afid; ticket }) w16_gen (bytes_gen 64)
    );
    ("Rsession", map (fun chal -> F.Rsession { chal }) (bytes_gen 64));
    ( "Rattach",
      map2 (fun fid qid -> F.Rattach { fid; qid }) w16_gen qid_gen );
    ("Rclone", map (fun fid -> F.Rclone { fid }) w16_gen);
    ("Rwalk", map2 (fun fid qid -> F.Rwalk { fid; qid }) w16_gen qid_gen);
    ( "Rclwalk",
      map2 (fun newfid qid -> F.Rclwalk { newfid; qid }) w16_gen qid_gen );
    ("Ropen", map2 (fun fid qid -> F.Ropen { fid; qid }) w16_gen qid_gen);
    ( "Rcreate",
      map2 (fun fid qid -> F.Rcreate { fid; qid }) w16_gen qid_gen );
    ("Rread", map (fun data -> F.Rread { data }) (bytes_gen F.maxfdata));
    ("Rwrite", map (fun count -> F.Rwrite { count }) w16_gen);
    ("Rclunk", map (fun fid -> F.Rclunk { fid }) w16_gen);
    ("Rremove", map (fun fid -> F.Rremove { fid }) w16_gen);
    ("Rstat", map (fun stat -> F.Rstat { stat }) dir_gen);
    ("Rwstat", map (fun fid -> F.Rwstat { fid }) w16_gen);
    ("Rflush", return F.Rflush);
  ]

(* the exhaustiveness check: every constructor of tmsg/rmsg must appear
   in the lists above, or this match stops compiling when one is added *)
let tmsg_tag (t : F.tmsg) =
  match t with
  | Tnop -> "Tnop" | Tauth _ -> "Tauth" | Tsession _ -> "Tsession"
  | Tattach _ -> "Tattach" | Tclone _ -> "Tclone" | Twalk _ -> "Twalk"
  | Tclwalk _ -> "Tclwalk" | Topen _ -> "Topen" | Tcreate _ -> "Tcreate"
  | Tread _ -> "Tread" | Twrite _ -> "Twrite" | Tclunk _ -> "Tclunk"
  | Tremove _ -> "Tremove" | Tstat _ -> "Tstat" | Twstat _ -> "Twstat"
  | Tflush _ -> "Tflush"

let rmsg_tag (r : F.rmsg) =
  match r with
  | Rnop -> "Rnop" | Rerror _ -> "Rerror" | Rauth _ -> "Rauth"
  | Rsession _ -> "Rsession" | Rattach _ -> "Rattach" | Rclone _ -> "Rclone"
  | Rwalk _ -> "Rwalk" | Rclwalk _ -> "Rclwalk" | Ropen _ -> "Ropen"
  | Rcreate _ -> "Rcreate" | Rread _ -> "Rread" | Rwrite _ -> "Rwrite"
  | Rclunk _ -> "Rclunk" | Rremove _ -> "Rremove" | Rstat _ -> "Rstat"
  | Rwstat _ -> "Rwstat" | Rflush -> "Rflush"

let test_every_type_roundtrips () =
  (* 50 random instances of each constructor, so no arm hides behind a
     oneof's dice *)
  let check_msg name msg =
    let back = F.decode (F.encode msg) in
    if back <> msg then
      Alcotest.failf "%s did not survive encode/decode" name
  in
  List.iter
    (fun (name, g) ->
      for _ = 1 to 50 do
        let t = gen g in
        Alcotest.(check string) "generator arm matches" name (tmsg_tag t);
        check_msg name (F.T (gen w16_gen, t))
      done)
    tmsg_constructors;
  List.iter
    (fun (name, g) ->
      for _ = 1 to 50 do
        let r = gen g in
        Alcotest.(check string) "generator arm matches" name (rmsg_tag r);
        check_msg name (F.R (gen w16_gen, r))
      done)
    rmsg_constructors

let msg_gen =
  QCheck.Gen.(
    w16_gen >>= fun tag ->
    oneof
      [
        map (fun t -> F.T (tag, t)) (oneof (List.map snd tmsg_constructors));
        map (fun r -> F.R (tag, r)) (oneof (List.map snd rmsg_constructors));
      ])

(* [decode_opt] either answers or errors; anything else (an escaped
   exception, including ones Bad_message doesn't cover) fails the
   property *)
let decodes_cleanly bytes =
  match F.decode_opt bytes with
  | Ok _ | Error _ -> true
  | exception e ->
    QCheck.Test.fail_reportf "decode_opt raised %s on %S"
      (Printexc.to_string e) bytes

let prop_decode_arbitrary =
  QCheck.Test.make ~name:"9p decode never raises on arbitrary bytes"
    ~count:2000
    (QCheck.make (bytes_gen 300))
    decodes_cleanly

let prop_decode_truncated =
  QCheck.Test.make ~name:"9p decode never raises on truncated messages"
    ~count:2000
    (QCheck.make QCheck.Gen.(pair msg_gen (int_bound 1000)))
    (fun (msg, cut) ->
      let s = F.encode msg in
      decodes_cleanly (String.sub s 0 (min cut (String.length s))))

let prop_decode_mutated =
  QCheck.Test.make ~name:"9p decode never raises on bit-flipped messages"
    ~count:2000
    (QCheck.make QCheck.Gen.(triple msg_gen (int_bound 10000) (int_bound 255)))
    (fun (msg, pos, flip) ->
      let s = F.encode msg in
      let b = Bytes.of_string s in
      let pos = pos mod Bytes.length b in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor flip));
      decodes_cleanly (Bytes.to_string b))

(* ---- Inet.Ipaddr ---- *)

(* print/parse round trip, and the mask and order operations checked
   against a model computed on the four octets, over the whole unsigned
   range: half the draws have the top bit set.  [same] puts the second
   address inside the first's subnet under the drawn mask. *)
let prop_ipaddr_roundtrip =
  QCheck.Test.make ~name:"ipaddr print/parse roundtrip" ~count:1000
    (QCheck.make QCheck.Gen.(quad u32_gen u32_gen u32_gen bool))
    (fun (x, y, m, same) ->
      let module A = Inet.Ipaddr in
      let y = if same then x land m lor (y land lnot m land 0xffffffff) else y in
      let octets v =
        [ v lsr 24; (v lsr 16) land 0xff; (v lsr 8) land 0xff; v land 0xff ]
      in
      let quad v = String.concat "." (List.map string_of_int (octets v)) in
      let ones o =
        List.length (List.filter (fun i -> o land (1 lsl i) <> 0) (List.init 8 Fun.id))
      in
      let class_model =
        match octets x with
        | o :: _ when o < 128 -> "255.0.0.0"
        | o :: _ when o < 192 -> "255.255.0.0"
        | _ -> "255.255.255.0"
      in
      let sign c = Int.compare c 0 in
      let a = A.of_int x and b = A.of_int y and mask = A.of_int m in
      A.to_string a = quad x
      && (match A.of_string_opt (quad x) with
         | Some a' -> A.equal a a'
         | None -> false)
      && A.to_string (A.class_mask a) = class_model
      && A.masklen mask = List.fold_left (fun n o -> n + ones o) 0 (octets m)
      && A.in_subnet a ~net:b ~mask
         = List.for_all2 ( = )
             (List.map2 ( land ) (octets x) (octets m))
             (List.map2 ( land ) (octets y) (octets m))
      && ((not same) || A.in_subnet a ~net:b ~mask)
      && sign (A.compare a b) = sign (compare (octets x) (octets y)))

let prop_ipaddr_never_raises =
  QCheck.Test.make ~name:"ipaddr of_string_opt never raises" ~count:2000
    (QCheck.make (bytes_gen 24))
    (fun s ->
      match Inet.Ipaddr.of_string_opt s with
      | Some _ | None -> true
      | exception e ->
        QCheck.Test.fail_reportf "of_string_opt raised %s on %S"
          (Printexc.to_string e) s)

let prop_ipaddr_quad =
  QCheck.Test.make ~name:"ipaddr parses what it prints, quad form"
    ~count:1000
    (QCheck.make
       QCheck.Gen.(
         quad (int_bound 255) (int_bound 255) (int_bound 255) (int_bound 255)))
    (fun (a, b, c, d) ->
      let s = Printf.sprintf "%d.%d.%d.%d" a b c d in
      Inet.Ipaddr.to_string (Inet.Ipaddr.of_string s) = s)

(* ---- the TCP wire codec ---- *)

(* segments come off the wire, so the decoder faces the same contract
   as the 9P unmarshaller: round-trip what we encode, never raise on
   anything else.  Field widths follow the header: 16-bit ports and
   window, 32-bit seq/ack, 6 flag bits. *)
let tcp_word32_gen =
  QCheck.Gen.(
    map2 (fun hi lo -> (hi lsl 16) lor lo) (int_bound 0xffff) (int_bound 0xffff))

let tcp_seg_gen =
  QCheck.Gen.(
    map
      (fun ((sport, dport, window), (seq, ack, flags), data) ->
        (sport, dport, window, seq, ack, flags, data))
      (triple
         (triple w16_gen w16_gen w16_gen)
         (triple tcp_word32_gen tcp_word32_gen (int_bound 0x3f))
         (bytes_gen 200)))

let prop_tcp_roundtrip =
  QCheck.Test.make ~name:"tcp segment encode/decode roundtrip" ~count:1000
    (QCheck.make tcp_seg_gen)
    (fun (sport, dport, window, seq, ack, flags, data) ->
      let pkt = Inet.Tcp.encode ~sport ~dport ~seq ~ack ~flags ~window data in
      match Inet.Tcp.decode pkt with
      | Some s ->
        s.Inet.Tcp.s_sport = sport && s.s_dport = dport && s.s_seq = seq
        && s.s_ack = ack && s.s_flags = flags && s.s_window = window
        && Block.to_string s.s_data = data
      | None -> false)

let prop_tcp_decode_never_raises =
  QCheck.Test.make ~name:"tcp decode never raises on arbitrary bytes"
    ~count:2000
    (QCheck.make (bytes_gen 64))
    (fun s ->
      match Inet.Tcp.decode s with
      | Some _ | None -> true
      | exception e ->
        QCheck.Test.fail_reportf "decode raised %s on %S"
          (Printexc.to_string e) s)

let prop_tcp_decode_truncated =
  QCheck.Test.make ~name:"tcp decode never raises on truncated segments"
    ~count:1000
    (QCheck.make QCheck.Gen.(pair tcp_seg_gen (int_bound 250)))
    (fun ((sport, dport, window, seq, ack, flags, data), cut) ->
      let pkt = Inet.Tcp.encode ~sport ~dport ~seq ~ack ~flags ~window data in
      match Inet.Tcp.decode (String.sub pkt 0 (min cut (String.length pkt))) with
      | Some _ | None -> true
      | exception e ->
        QCheck.Test.fail_reportf "decode raised %s" (Printexc.to_string e))

let prop_tcp_decode_flip =
  QCheck.Test.make ~name:"tcp checksum rejects a bit flip" ~count:1000
    (QCheck.make QCheck.Gen.(triple tcp_seg_gen (int_bound 10000) (int_bound 7)))
    (fun ((sport, dport, window, seq, ack, flags, data), pos, bit) ->
      let pkt = Inet.Tcp.encode ~sport ~dport ~seq ~ack ~flags ~window data in
      let b = Bytes.of_string pkt in
      let pos = pos mod Bytes.length b in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
      Inet.Tcp.decode (Bytes.to_string b) = None)

(* ---- 9P framing over byte streams ---- *)

(* a byte stream may be cut anywhere: mid-prefix, mid-body, or many
   messages to one chunk.  The splitter must hand back exactly the
   messages that went in, in order, whatever the cuts: a list of
   arbitrary cuts (the rest of the wire arriving whole), or the whole
   wire cut at one fixed size of 1 to 7 bytes *)
let prop_frame_any_split =
  QCheck.Test.make ~name:"frame splitter: any chunking yields the same messages"
    ~count:500
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (0 -- 12)
              (oneof [ bytes_gen 8; bytes_gen 300; bytes_gen 3000 ]))
           (oneof
              [
                map (fun cs -> `Cuts cs) (list_size (0 -- 20) (int_bound 700));
                map (fun k -> `Every k) (1 -- 7);
              ])))
    (fun (msgs, cuts) ->
      let wire = String.concat "" (List.map F.Frame.wrap msgs) in
      let sp = F.Frame.splitter () in
      let rec feed off cuts acc =
        let rest = String.length wire - off in
        let n, cuts =
          match cuts with
          | `Every k -> (min k rest, cuts)
          | `Cuts (c :: cs) -> (min c rest, `Cuts cs)
          | `Cuts [] -> (rest, cuts)
        in
        let acc = List.rev_append (F.Frame.feed sp (String.sub wire off n)) acc in
        if off + n >= String.length wire then List.rev acc
        else feed (off + n) cuts acc
      in
      feed 0 cuts [] = msgs)

(* ---- the ndb tuple-file parser ---- *)

(* render an entry list in the paper's format — first pair on the
   header line at the left margin, the rest on tab-indented
   continuation lines — and sprinkle comments and blank lines, which
   the parser must ignore *)
let attr_gen =
  QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (1 -- 8))

let val_gen =
  QCheck.Gen.(
    oneof
      [
        string_size ~gen:(char_range 'a' 'z') (0 -- 10);
        (* values with spaces must be quoted to survive *)
        map
          (fun (a, b) -> Printf.sprintf "%s %s" a b)
          (pair
             (string_size ~gen:(char_range 'a' 'z') (1 -- 5))
             (string_size ~gen:(char_range 'a' 'z') (1 -- 5)));
      ])

let entry_gen =
  QCheck.Gen.(list_size (1 -- 6) (pair attr_gen val_gen))

let render_entries entries =
  let b = Buffer.create 256 in
  let quote v = if String.contains v ' ' then "\"" ^ v ^ "\"" else v in
  List.iteri
    (fun i entry ->
      if i mod 2 = 0 then Buffer.add_string b "# a comment line\n";
      (match entry with
      | [] -> ()
      | (a, v) :: rest ->
        Printf.bprintf b "%s=%s\n" a (quote v);
        List.iter (fun (a, v) -> Printf.bprintf b "\t%s=%s\n" a (quote v)) rest);
      if i mod 3 = 0 then Buffer.add_string b "\n")
    entries;
  Buffer.contents b

let prop_ndb_roundtrip =
  QCheck.Test.make ~name:"ndb parses what it prints" ~count:500
    (QCheck.make QCheck.Gen.(list_size (0 -- 5) entry_gen))
    (fun entries ->
      let entries = List.filter (fun e -> e <> []) entries in
      Ndb.parse_string (render_entries entries) = entries)

(* continuation lines: an entry split one-pair-per-indented-line parses
   to the same entry as every pair packed onto the header line *)
let prop_ndb_continuation =
  QCheck.Test.make ~name:"ndb continuation lines join the entry" ~count:500
    (QCheck.make entry_gen)
    (fun entry ->
      (* space-free values, so both renderings are legal unquoted *)
      let entry =
        List.map
          (fun (a, v) ->
            (a, String.concat "" (String.split_on_char ' ' v)))
          entry
      in
      match entry with
      | [] -> true
      | (a0, v0) :: rest ->
        let split =
          Printf.sprintf "%s=%s\n" a0 v0
          ^ String.concat ""
              (List.map (fun (a, v) -> Printf.sprintf "\t%s=%s\n" a v) rest)
        in
        let packed =
          String.concat " "
            (List.map (fun (a, v) -> Printf.sprintf "%s=%s" a v) entry)
          ^ "\n"
        in
        Ndb.parse_string split = [ entry ]
        && Ndb.parse_string packed = [ entry ])

let prop_ndb_never_raises =
  QCheck.Test.make ~name:"ndb parser never raises" ~count:2000
    (QCheck.make (bytes_gen 400))
    (fun s ->
      match Ndb.parse_string s with
      | _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "parse_string raised %s on %S"
          (Printexc.to_string e) s)

let prop_ndb_comments_ignored =
  QCheck.Test.make ~name:"ndb comments and blanks change nothing" ~count:500
    (QCheck.make QCheck.Gen.(pair (list_size (1 -- 4) entry_gen) (bytes_gen 40)))
    (fun (entries, junk) ->
      let entries = List.filter (fun e -> e <> []) entries in
      (* a comment whose body is arbitrary bytes, minus newlines *)
      let junk = String.map (fun c -> if c = '\n' then '.' else c) junk in
      let plain = render_entries entries in
      let noisy =
        "# " ^ junk ^ "\n\n" ^ plain ^ "\n# trailing " ^ junk ^ "\n"
      in
      Ndb.parse_string noisy = Ndb.parse_string plain)

(* ---- the union mount table ---- *)

(* Random bind/unmount sequences over one mount point, checked against
   a pure reference model of the ordered member list (paper section 6:
   union directories).  Three properties: walk precedence (the first
   member holding a name wins), directory listing (every member's
   entries, duplicates suppressed), and MCREATE routing (creation lands
   in the first member bound with -c, or is refused). *)

type umem = Onto | Usrc of int

type uop =
  | Ubind of int * Vfs.Ns.flag * bool
  | Uunmount_src of int
  | Uunmount_all

let uflag_str = function
  | Vfs.Ns.Repl -> "Repl"
  | Vfs.Ns.Before -> "Before"
  | Vfs.Ns.After -> "After"

let uop_str = function
  | Ubind (i, f, mc) ->
    Printf.sprintf "bind%s /d%d %s" (if mc then " -c" else "") i (uflag_str f)
  | Uunmount_src i -> Printf.sprintf "unmount /d%d /u" i
  | Uunmount_all -> "unmount /u"

let uops_print ops = String.concat "; " (List.map uop_str ops)

(* overlapping source trees, so precedence and dedup are exercised *)
let usrc_files = [| [ "a"; "b" ]; [ "b"; "c" ]; [ "c"; "d" ]; [ "a"; "d"; "e" ] |]
let uonto_files = [ "a"; "e" ]
let uuniverse = [ "a"; "b"; "c"; "d"; "e" ]
let umem_files = function Onto -> uonto_files | Usrc i -> usrc_files.(i)
let umem_dir = function Onto -> "/u" | Usrc i -> Printf.sprintf "/d%d" i

let umem_content m name =
  match m with
  | Onto -> "u:" ^ name
  | Usrc i -> Printf.sprintf "d%d:%s" i name

(* the reference model: None = nothing mounted on /u, Some l = the
   ordered union list with each member's MCREATE bit.  Mirrors the
   kernel rules: a fresh union keeps the mounted-upon directory as a
   creation-permitted member (except under Repl, which hides it);
   rebinding Repl over an existing union replaces the whole list *)
let umodel_apply u op =
  match (op, u) with
  | Ubind (i, f, mc), None ->
    let m = (Usrc i, mc) and onto = (Onto, true) in
    Some
      (match f with
      | Vfs.Ns.Repl -> [ m ]
      | Vfs.Ns.Before -> [ m; onto ]
      | Vfs.Ns.After -> [ onto; m ])
  | Ubind (i, f, mc), Some l ->
    let m = (Usrc i, mc) in
    Some
      (match f with
      | Vfs.Ns.Repl -> [ m ]
      | Vfs.Ns.Before -> m :: l
      | Vfs.Ns.After -> l @ [ m ])
  | Uunmount_src i, Some l -> (
    match List.filter (fun (m, _) -> m <> Usrc i) l with
    | [] -> None
    | l -> Some l)
  | Uunmount_src _, None -> None
  | Uunmount_all, _ -> None

let umodel_members = function None -> [ (Onto, true) ] | Some l -> l

let umodel_walk u name =
  List.find_opt (fun (m, _) -> List.mem name (umem_files m)) (umodel_members u)

let umodel_ls u =
  List.sort_uniq compare
    (List.concat_map (fun (m, _) -> umem_files m) (umodel_members u))

let umodel_create_target = function
  | None -> Some Onto
  | Some l -> Option.map fst (List.find_opt (fun (_, mc) -> mc) l)

let fresh_union_env () =
  let ram = Ninep.Ramfs.make ~name:"uroot" () in
  Ninep.Ramfs.mkdir ram "/u";
  List.iter
    (fun n -> Ninep.Ramfs.add_file ram ("/u/" ^ n) (umem_content Onto n))
    uonto_files;
  Array.iteri
    (fun i names ->
      let d = umem_dir (Usrc i) in
      Ninep.Ramfs.mkdir ram d;
      List.iter
        (fun n ->
          Ninep.Ramfs.add_file ram (d ^ "/" ^ n) (umem_content (Usrc i) n))
        names)
    usrc_files;
  let ns = Vfs.Ns.make ~root:(Ninep.Ramfs.fs ram) ~uname:"glenda" in
  (ram, Vfs.Env.make ~ns ~uname:"glenda")

let uapply_real env = function
  | Ubind (i, f, mc) ->
    Vfs.Env.bind ~mcreate:mc env ~src:(umem_dir (Usrc i)) ~onto:"/u" f
  | Uunmount_src i -> Vfs.Env.unmount ~src:(umem_dir (Usrc i)) env ~onto:"/u"
  | Uunmount_all -> Vfs.Env.unmount env ~onto:"/u"

(* run a sequence against both the real mount table and the model *)
let urun ops =
  let ram, env = fresh_union_env () in
  let u =
    List.fold_left
      (fun u op ->
        uapply_real env op;
        umodel_apply u op)
      None ops
  in
  (ram, env, u)

let uops_arb =
  QCheck.make ~print:uops_print
    QCheck.Gen.(
      list_size (0 -- 12)
        (frequency
           [
             ( 6,
               map3
                 (fun i f mc -> Ubind (i, f, mc))
                 (int_bound 3)
                 (oneofl [ Vfs.Ns.Repl; Vfs.Ns.Before; Vfs.Ns.After ])
                 bool );
             (2, map (fun i -> Uunmount_src i) (int_bound 3));
             (1, return Uunmount_all);
           ]))

let prop_union_walk_order =
  QCheck.Test.make ~name:"union walk: first member holding the name wins"
    ~count:300 uops_arb (fun ops ->
      let _ram, env, u = urun ops in
      List.for_all
        (fun name ->
          let actual =
            match Vfs.Env.read_file env ("/u/" ^ name) with
            | s -> Some s
            | exception Vfs.Chan.Error _ -> None
          in
          let expected =
            Option.map (fun (m, _) -> umem_content m name) (umodel_walk u name)
          in
          actual = expected
          || QCheck.Test.fail_reportf "walk /u/%s: real %s, model %s" name
               (Option.value ~default:"<error>" actual)
               (Option.value ~default:"<error>" expected))
        uuniverse)

let prop_union_ls =
  QCheck.Test.make
    ~name:"union listing: all members, no duplicate entries" ~count:300
    uops_arb (fun ops ->
      let _ram, env, u = urun ops in
      let names =
        List.map (fun d -> d.Ninep.Fcall.d_name) (Vfs.Env.ls env "/u")
      in
      let sorted = List.sort compare names in
      (sorted = List.sort_uniq compare names
      || QCheck.Test.fail_reportf "duplicate entries in ls /u: %s"
           (String.concat "," names))
      && (sorted = umodel_ls u
         || QCheck.Test.fail_reportf "ls /u: real {%s}, model {%s}"
              (String.concat "," sorted)
              (String.concat "," (umodel_ls u))))

let prop_union_mcreate =
  QCheck.Test.make
    ~name:"union create: lands in the first MCREATE member, or refused"
    ~count:300 uops_arb (fun ops ->
      let ram, env, u = urun ops in
      let landed =
        match Vfs.Env.write_file env "/u/zz" "zz" with
        | () -> Ok ()
        | exception Vfs.Chan.Error e -> Error e
      in
      match (umodel_create_target u, landed) with
      | Some m, Ok () ->
        let holders =
          List.filter
            (fun d -> Ninep.Ramfs.exists ram (d ^ "/zz"))
            ("/u" :: List.init 4 (fun i -> Printf.sprintf "/d%d" i))
        in
        holders = [ umem_dir m ]
        || QCheck.Test.fail_reportf "create landed in {%s}, model says %s"
             (String.concat "," holders) (umem_dir m)
      | None, Error e ->
        let nl = String.length "forbids creation" and hl = String.length e in
        let rec has i =
          i + nl <= hl && (String.sub e i nl = "forbids creation" || has (i + 1))
        in
        has 0
        || QCheck.Test.fail_reportf "refusal with the wrong error: %s" e
      | Some m, Error e ->
        QCheck.Test.fail_reportf "model routes to %s but create failed: %s"
          (umem_dir m) e
      | None, Ok () ->
        QCheck.Test.fail_reportf
          "model says creation forbidden but the create succeeded")

(* ---- walks through the mount driver, against a local reference ----

   A random tree is served over 9P and mounted at /n/r, alone (Repl)
   or after a local directory (After); the reference name space binds
   the same tree as a local ramfs at the same point.  Stat,
   open-read-close, ls and create-then-remove of random paths of depth
   1-5, present and missing, must answer the same through both, and
   each op must give back every fid it took: the mount client's
   open_fids returns to its baseline after every op. *)

let wdirs = [ "a"; "b"; "c" ]
let wfiles = [ "f"; "g" ]

(* a file path: up to four directories, then a file *)
let wfile_gen =
  QCheck.Gen.(
    map2 (fun ds f -> ds @ [ f ])
      (list_size (0 -- 4) (oneofl wdirs))
      (oneofl wfiles))

(* a file of the tree or one of its directories; the same with one
   component (middle or last) renamed to a miss; or random names *)
let wquery_gen tree =
  let open QCheck.Gen in
  let prefix p =
    map (fun k -> List.filteri (fun i _ -> i < k) p) (1 -- List.length p)
  in
  let miss p =
    map
      (fun k -> List.mapi (fun i c -> if i = k then "x" else c) p)
      (0 -- (List.length p - 1))
  in
  frequency
    [
      (3, oneofl tree >>= prefix);
      (2, oneofl tree >>= prefix >>= miss);
      (1, list_size (1 -- 5) (oneofl (("x" :: wdirs) @ wfiles)));
    ]

let wpath q = "/n/r/" ^ String.concat "/" q

let wcase_arb =
  QCheck.make
    ~print:(fun (tree, union, qs) ->
      Printf.sprintf "%s; tree {%s}; queries {%s}"
        (if union then "After" else "Repl")
        (String.concat " " (List.map wpath tree))
        (String.concat " " (List.map wpath qs)))
    QCheck.Gen.(
      list_size (1 -- 6) wfile_gen >>= fun tree ->
      map2
        (fun union qs -> (tree, union, qs))
        bool
        (list_size (1 -- 8) (wquery_gen tree)))

(* a name space whose /n/r is a plain local directory — under a union,
   holding a file and a directory that shadow the tree's *)
let wenv union =
  let ram = Ninep.Ramfs.make ~name:"root" () in
  Ninep.Ramfs.mkdir ram "/n/r";
  if union then begin
    Ninep.Ramfs.add_file ram "/n/r/g" "local g";
    Ninep.Ramfs.add_file ram "/n/r/c/f" "local c/f"
  end;
  let ns = Vfs.Ns.make ~root:(Ninep.Ramfs.fs ram) ~uname:"u" in
  Vfs.Env.make ~ns ~uname:"u"

let wtree tree =
  let ram = Ninep.Ramfs.make ~name:"tree" () in
  List.iter
    (fun p ->
      Ninep.Ramfs.add_file ram
        ("/" ^ String.concat "/" p)
        (String.concat "." p))
    tree;
  Ninep.Ramfs.fs ram

(* each op renders its answer, or its error, as one string *)
let wops =
  let names ds = String.concat "," (List.map (fun d -> d.F.d_name) ds) in
  [
    ( "stat",
      fun env p ->
        let d = Vfs.Env.stat env p in
        Printf.sprintf "%s dir=%b len=%Ld" d.F.d_name (F.qid_is_dir d.F.d_qid)
          d.F.d_length );
    ( "read",
      fun env p ->
        let data = Vfs.Env.read_file env p in
        if List.mem (Filename.basename p) wdirs then
          names
            (List.init (String.length data / F.dirlen) (fun i ->
                 F.decode_dir data (i * F.dirlen)))
        else data );
    ("ls", fun env p -> names (Vfs.Env.ls env p));
    ( "create-remove",
      fun env p ->
        let fd = Vfs.Env.create env p ~perm:0o644l F.Owrite in
        ignore (Vfs.Env.write env fd "new");
        Vfs.Env.close env fd;
        Vfs.Env.remove env p;
        "created and removed" );
  ]

let wrun (tree, union, qs) =
  let eng = Sim.Engine.create () in
  let result = ref (Error "the walker did not finish") in
  ignore
    (Sim.Proc.spawn eng ~name:"walker" (fun () ->
         let flag = if union then Vfs.Ns.After else Vfs.Ns.Repl in
         let real = wenv union and reference = wenv union in
         let ct, st = Ninep.Transport.pipe eng in
         ignore (Ninep.Server.serve eng (wtree tree) st);
         let client = Ninep.Client.make eng ct in
         Ninep.Client.session client;
         Vfs.Env.mount real client ~onto:"/n/r" flag;
         Vfs.Env.mount_fs reference (wtree tree) ~onto:"/n/r" flag;
         let base = Ninep.Client.open_fids client in
         let answer op env p =
           try op env p with Vfs.Chan.Error e -> "error: " ^ e
         in
         let check q (name, op) =
           let p = wpath q in
           let got = answer op real p and want = answer op reference p in
           if got <> want then
             Error
               (Printf.sprintf "%s %s: mounted %S, reference %S" name p got
                  want)
           else
             let n = Ninep.Client.open_fids client in
             if n <> base then
               Error
                 (Printf.sprintf "%s %s: %d fids open, baseline %d" name p n
                    base)
             else Ok ()
         in
         let check_all r q =
           List.fold_left
             (fun r op -> Result.bind r (fun () -> check q op))
             r wops
         in
         result := List.fold_left check_all (Ok ()) qs));
  Sim.Engine.run eng;
  !result

let prop_mount_walks =
  QCheck.Test.make
    ~name:"mounted walks answer as local ones and give every fid back"
    ~count:200 wcase_arb (fun c ->
      match wrun c with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

(* ---- the stacked-cfs coherence property ----------------------------

   Random read / write-through / foreign-write streams through a
   2-tier cfs stack (two terminal caches over one shared mid tier over
   a ramfs origin) checked against a flat byte-array model: a fresh
   walk+open before every read must observe exactly the model contents
   (qid.vers propagates through the tiers), and the mid tier's
   upstream data reads stay within one-miss-per-block per version
   epoch (epochs advance only on foreign writes). *)

type sop =
  | SRead of int * int * int  (* client, offset, length *)
  | SWrite of int * int * int  (* client, offset, length — write-through *)
  | SForeign of int * int  (* offset, length — direct to origin *)

let sfile_size = 4096
let sbsize = 512

let sop_print = function
  | SRead (c, o, l) -> Printf.sprintf "read[%d] %d+%d" c o l
  | SWrite (c, o, l) -> Printf.sprintf "write[%d] %d+%d" c o l
  | SForeign (o, l) -> Printf.sprintf "foreign %d+%d" o l

let sops_print ops = String.concat "; " (List.map sop_print ops)

let sops_arb =
  QCheck.make ~print:sops_print
    QCheck.Gen.(
      list_size (1 -- 15)
        (frequency
           [
             ( 4,
               map3
                 (fun c o l -> SRead (c, o, l))
                 (int_bound 1)
                 (int_bound (sfile_size - 1))
                 (int_bound 600) );
             ( 3,
               map3
                 (fun c o l -> SWrite (c, o, 1 + l))
                 (int_bound 1)
                 (int_bound (sfile_size - 1))
                 (int_bound 199) );
             ( 2,
               map2
                 (fun o l -> SForeign (o, 1 + l))
                 (int_bound (sfile_size - 1))
                 (int_bound 199) );
           ]))

let swalk_open ?(mode = Ninep.Fcall.Oread) c =
  let root = Ninep.Client.attach c ~uname:"prop" ~aname:"" in
  let fid = Ninep.Client.walk_path c root [ "f" ] in
  ignore (Ninep.Client.open_ c fid mode);
  Ninep.Client.clunk c root;
  fid

let srun ops =
  let eng = Sim.Engine.create () in
  let ram = Ninep.Ramfs.make ~name:"origin" () in
  let init = String.make sfile_size 'z' in
  Ninep.Ramfs.add_file ram "/f" init;
  let up_ct, up_st = Ninep.Transport.pipe eng in
  ignore (Ninep.Server.serve eng (Ninep.Ramfs.fs ram) up_st);
  let cfg = { Cfs.bsize = sbsize; budget = 1024 * 1024; readahead = 4 } in
  let mid = Cfs.make ~config:cfg eng ~upstream:up_ct () in
  let ta = Cfs.make ~config:cfg eng ~upstream:(Cfs.connect mid) () in
  let tb = Cfs.make ~config:cfg eng ~upstream:(Cfs.connect mid) () in
  let foreign_ct, foreign_st = Ninep.Transport.pipe eng in
  ignore (Ninep.Server.serve eng (Ninep.Ramfs.fs ram) foreign_st);
  let model = Bytes.of_string init in
  let mismatches = ref [] in
  let foreign_writes = ref 0 in
  let finished = ref false in
  ignore
    (Sim.Proc.spawn eng ~name:"driver" (fun () ->
         let ca = Ninep.Client.make eng (Cfs.transport ta) in
         Ninep.Client.session ca;
         let cb = Ninep.Client.make eng (Cfs.transport tb) in
         Ninep.Client.session cb;
         let cf = Ninep.Client.make eng foreign_ct in
         Ninep.Client.session cf;
         List.iteri
           (fun i op ->
             let fill len = String.make len (Char.chr (65 + (i mod 26))) in
             match op with
             | SRead (cl, off, len) ->
               let c = if cl = 0 then ca else cb in
               let fid = swalk_open c in
               let got =
                 Ninep.Client.read c fid ~offset:(Int64.of_int off)
                   ~count:len
               in
               Ninep.Client.clunk c fid;
               let want =
                 Bytes.sub_string model off (min len (sfile_size - off))
               in
               if got <> want then
                 mismatches := sop_print op :: !mismatches
             | SWrite (cl, off, len) ->
               let len = min len (sfile_size - off) in
               let c = if cl = 0 then ca else cb in
               let fid = swalk_open ~mode:Ninep.Fcall.Ordwr c in
               ignore
                 (Ninep.Client.write c fid ~offset:(Int64.of_int off)
                    (fill len));
               Ninep.Client.clunk c fid;
               Bytes.blit_string (fill len) 0 model off len
             | SForeign (off, len) ->
               let len = min len (sfile_size - off) in
               let fid = swalk_open ~mode:Ninep.Fcall.Ordwr cf in
               ignore
                 (Ninep.Client.write cf fid ~offset:(Int64.of_int off)
                    (fill len));
               Ninep.Client.clunk cf fid;
               incr foreign_writes;
               Bytes.blit_string (fill len) 0 model off len)
           ops;
         finished := true));
  Sim.Engine.run eng;
  (mid, !mismatches, !foreign_writes, !finished)

let prop_cfs_stack =
  QCheck.Test.make
    ~name:
      "cfs stack: contents match a flat store; origin reads within the \
       per-epoch block bound"
    ~count:300 sops_arb (fun ops ->
      let mid, mismatches, foreign, finished = srun ops in
      (finished || QCheck.Test.fail_reportf "driver did not finish")
      && (mismatches = []
         || QCheck.Test.fail_reportf "stale or wrong reads: %s"
              (String.concat "; " mismatches))
      &&
      let bound = (1 + foreign) * ((sfile_size / sbsize) + 1) in
      let misses = Cfs.counter mid "misses" in
      misses <= bound
      || QCheck.Test.fail_reportf
           "mid tier issued %d upstream data reads; one-miss-per-block \
            allows %d (epochs %d)"
           misses bound (1 + foreign))

let () =
  Alcotest.run "props"
    [
      ( "ninep-codec",
        [
          Alcotest.test_case "every message type roundtrips" `Quick
            test_every_type_roundtrips;
          QCheck_alcotest.to_alcotest prop_decode_arbitrary;
          QCheck_alcotest.to_alcotest prop_decode_truncated;
          QCheck_alcotest.to_alcotest prop_decode_mutated;
          QCheck_alcotest.to_alcotest prop_frame_any_split;
        ] );
      ( "ipaddr",
        [
          QCheck_alcotest.to_alcotest prop_ipaddr_roundtrip;
          QCheck_alcotest.to_alcotest prop_ipaddr_never_raises;
          QCheck_alcotest.to_alcotest prop_ipaddr_quad;
        ] );
      ( "tcp-codec",
        [
          QCheck_alcotest.to_alcotest prop_tcp_roundtrip;
          QCheck_alcotest.to_alcotest prop_tcp_decode_never_raises;
          QCheck_alcotest.to_alcotest prop_tcp_decode_truncated;
          QCheck_alcotest.to_alcotest prop_tcp_decode_flip;
        ] );
      ( "ndb",
        [
          QCheck_alcotest.to_alcotest prop_ndb_roundtrip;
          QCheck_alcotest.to_alcotest prop_ndb_continuation;
          QCheck_alcotest.to_alcotest prop_ndb_never_raises;
          QCheck_alcotest.to_alcotest prop_ndb_comments_ignored;
        ] );
      ( "union",
        [
          QCheck_alcotest.to_alcotest prop_union_walk_order;
          QCheck_alcotest.to_alcotest prop_union_ls;
          QCheck_alcotest.to_alcotest prop_union_mcreate;
        ] );
      ("mount-walks", [ QCheck_alcotest.to_alcotest prop_mount_walks ]);
      ("cfs-stack", [ QCheck_alcotest.to_alcotest prop_cfs_stack ]);
    ]
