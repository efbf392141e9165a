(* Tests for 9P: marshalling, framing, and client/server semantics. *)

module F = Ninep.Fcall

(* ---- marshalling roundtrips ---- *)

let qid_gen =
  QCheck.Gen.(
    map2
      (fun p v -> { F.qpath = p; qvers = v })
      (int_bound 0xfffffff) (int_bound 0xffff))

let name_gen =
  QCheck.Gen.(
    map
      (fun s -> String.concat "" (List.filteri (fun i _ -> i < 27) [ s ]))
      (string_size ~gen:(char_range 'a' 'z') (0 -- 27)))

let dir_gen =
  QCheck.Gen.(
    map
      (fun (name, uid, (qid, mode, len)) ->
        {
          F.d_name = name;
          d_uid = uid;
          d_gid = uid;
          d_qid = qid;
          d_mode = Int32.of_int mode;
          d_atime = 11l;
          d_mtime = 22l;
          d_length = Int64.of_int len;
          d_type = Char.code 'r';
          d_dev = 3;
        })
      (triple name_gen name_gen (triple qid_gen (int_bound 0o777) small_nat)))

let tmsg_gen =
  QCheck.Gen.(
    oneof
      [
        return F.Tnop;
        map (fun chal -> F.Tsession { chal }) (string_size (0 -- 32));
        map2
          (fun fid (uname, aname) -> F.Tattach { fid; uname; aname })
          (int_bound 0xffff) (pair name_gen name_gen);
        map2
          (fun fid newfid -> F.Tclone { fid; newfid })
          (int_bound 0xffff) (int_bound 0xffff);
        map2 (fun fid name -> F.Twalk { fid; name }) (int_bound 0xffff) name_gen;
        map3
          (fun fid newfid name -> F.Tclwalk { fid; newfid; name })
          (int_bound 0xffff) (int_bound 0xffff) name_gen;
        map2
          (fun fid trunc -> F.Topen { fid; mode = F.Ordwr; trunc })
          (int_bound 0xffff) bool;
        map3
          (fun fid name perm ->
            F.Tcreate { fid; name; perm = Int32.of_int perm; mode = F.Oread })
          (int_bound 0xffff) name_gen (int_bound 0o777);
        map3
          (fun fid offset count ->
            F.Tread { fid; offset = Int64.of_int offset; count })
          (int_bound 0xffff) (int_bound 1_000_000)
          (int_bound F.maxfdata);
        map3
          (fun fid offset data ->
            F.Twrite { fid; offset = Int64.of_int offset; data })
          (int_bound 0xffff) (int_bound 1_000_000)
          (string_size (0 -- 200));
        map (fun fid -> F.Tclunk { fid }) (int_bound 0xffff);
        map (fun fid -> F.Tremove { fid }) (int_bound 0xffff);
        map (fun fid -> F.Tstat { fid }) (int_bound 0xffff);
        map2
          (fun fid stat -> F.Twstat { fid; stat })
          (int_bound 0xffff) dir_gen;
        map (fun oldtag -> F.Tflush { oldtag }) (int_bound 0xffff);
        map2
          (fun afid uname -> F.Tauth { afid; uname; ticket = "tick" })
          (int_bound 0xffff) name_gen;
      ])

let rmsg_gen =
  QCheck.Gen.(
    oneof
      [
        return F.Rnop;
        map (fun e -> F.Rerror e) (string_size ~gen:(char_range 'a' 'z') (1 -- 60));
        map (fun chal -> F.Rsession { chal }) (string_size (0 -- 32));
        map2 (fun fid qid -> F.Rattach { fid; qid }) (int_bound 0xffff) qid_gen;
        map (fun fid -> F.Rclone { fid }) (int_bound 0xffff);
        map2 (fun fid qid -> F.Rwalk { fid; qid }) (int_bound 0xffff) qid_gen;
        map2
          (fun newfid qid -> F.Rclwalk { newfid; qid })
          (int_bound 0xffff) qid_gen;
        map2 (fun fid qid -> F.Ropen { fid; qid }) (int_bound 0xffff) qid_gen;
        map2 (fun fid qid -> F.Rcreate { fid; qid }) (int_bound 0xffff) qid_gen;
        map (fun data -> F.Rread { data }) (string_size (0 -- 300));
        map (fun count -> F.Rwrite { count }) (int_bound F.maxfdata);
        map (fun fid -> F.Rclunk { fid }) (int_bound 0xffff);
        map (fun fid -> F.Rremove { fid }) (int_bound 0xffff);
        map (fun stat -> F.Rstat { stat }) dir_gen;
        map (fun fid -> F.Rwstat { fid }) (int_bound 0xffff);
        return F.Rflush;
        map2
          (fun afid t -> F.Rauth { afid; ticket = t })
          (int_bound 0xffff) (string_size (0 -- 16));
      ])

let msg_gen =
  QCheck.Gen.(
    int_bound 0xfffe >>= fun tag ->
    oneof
      [
        map (fun t -> F.T (tag, t)) tmsg_gen;
        map (fun r -> F.R (tag, r)) rmsg_gen;
      ])

let msg_arb = QCheck.make ~print:F.message_name msg_gen

let prop_encode_decode =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:500 msg_arb
    (fun m -> F.decode (F.encode m) = m)

let prop_dir_roundtrip =
  QCheck.Test.make ~name:"dir encode/decode roundtrip" ~count:200
    (QCheck.make dir_gen) (fun d ->
      let s = F.encode_dir d in
      String.length s = F.dirlen && F.decode_dir s 0 = d)

let test_decode_garbage () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "garbage %S rejected" s)
        true
        (try
           ignore (F.decode s);
           false
         with F.Bad_message _ -> true))
    [ ""; "\x00"; "\x01\x02\x03"; "\xff\x00\x00"; "\x32" (* truncated Tnop tag *) ]

(* ---- every message kind as the snooper prints it ----
   The expected lines are the tap's format, byte for byte: a change to
   one is a change to every snooped 9P line. *)

let render p = Result.to_option (Result.map F.to_string (F.decode_opt p))

let print_dir =
  { F.d_name = "motd"; d_uid = "bootes"; d_gid = "sys";
    d_qid = { F.qpath = 42; qvers = 3 }; d_mode = 0o644l; d_atime = 11l;
    d_mtime = 22l; d_length = 6L; d_type = Char.code 'M'; d_dev = 1 }

let print_table =
  let q = { F.qpath = 0x80000001; qvers = 7 } in
  [
    (F.T (1, F.Tnop), "Tnop tag=1");
    ( F.T (2, F.Tauth { afid = 5; uname = "philw"; ticket = "tick" }),
      "Tauth tag=2 afid=5 uname=philw ticket[4]" );
    (F.T (3, F.Tsession { chal = "abcdefgh" }), "Tsession tag=3 chal[8]");
    ( F.T (4, F.Tattach { fid = 1; uname = "philw"; aname = "/tmp" }),
      "Tattach tag=4 fid=1 uname=philw aname=/tmp" );
    (F.T (5, F.Tclone { fid = 1; newfid = 2 }), "Tclone tag=5 fid=1 newfid=2");
    (F.T (6, F.Twalk { fid = 2; name = "motd" }), "Twalk tag=6 fid=2 name=motd");
    ( F.T (7, F.Tclwalk { fid = 1; newfid = 3; name = "lib" }),
      "Tclwalk tag=7 fid=1 newfid=3 name=lib" );
    ( F.T (8, F.Topen { fid = 2; mode = F.Ordwr; trunc = true }),
      "Topen tag=8 fid=2 mode=18" );
    ( F.T
        ( 9,
          F.Tcreate
            { fid = 3; name = "new"; perm = Int32.logor F.dmdir 0o755l;
              mode = F.Owrite } ),
      "Tcreate tag=9 fid=3 name=new perm=20000000755 mode=1" );
    ( F.T (10, F.Tread { fid = 2; offset = 8192L; count = 512 }),
      "Tread tag=10 fid=2 offset=8192 count=512" );
    ( F.T (11, F.Twrite { fid = 2; offset = 64L; data = "hello" }),
      "Twrite tag=11 fid=2 offset=64 count=5" );
    (F.T (12, F.Tclunk { fid = 2 }), "Tclunk tag=12 fid=2");
    (F.T (13, F.Tremove { fid = 3 }), "Tremove tag=13 fid=3");
    (F.T (14, F.Tstat { fid = 2 }), "Tstat tag=14 fid=2");
    ( F.T (15, F.Twstat { fid = 2; stat = print_dir }),
      "Twstat tag=15 fid=2 name=motd" );
    (F.T (16, F.Tflush { oldtag = 10 }), "Tflush tag=16 oldtag=10");
    (F.R (1, F.Rnop), "Rnop tag=1");
    (F.R (2, F.Rerror "file does not exist"), "Rerror tag=2 file does not exist");
    (F.R (3, F.Rauth { afid = 5; ticket = "tick" }), "Rauth tag=3 afid=5 ticket[4]");
    (F.R (4, F.Rsession { chal = "abcdefgh" }), "Rsession tag=4 chal[8]");
    ( F.R (5, F.Rattach { fid = 1; qid = q }),
      "Rattach tag=5 fid=1 qid=(2147483649,7)" );
    (F.R (6, F.Rclone { fid = 1 }), "Rclone tag=6 fid=1");
    ( F.R (7, F.Rwalk { fid = 2; qid = { F.qpath = 42; qvers = 3 } }),
      "Rwalk tag=7 fid=2 qid=(42,3)" );
    ( F.R (8, F.Rclwalk { newfid = 3; qid = q }),
      "Rclwalk tag=8 newfid=3 qid=(2147483649,7)" );
    ( F.R (9, F.Ropen { fid = 2; qid = { F.qpath = 42; qvers = 4 } }),
      "Ropen tag=9 fid=2 qid=(42,4)" );
    ( F.R (10, F.Rcreate { fid = 3; qid = { F.qpath = 0x80000002; qvers = 0 } }),
      "Rcreate tag=10 fid=3 qid=(2147483650,0)" );
    (F.R (11, F.Rread { data = "hello" }), "Rread tag=11 count=5");
    (F.R (12, F.Rwrite { count = 5 }), "Rwrite tag=12 count=5");
    (F.R (13, F.Rclunk { fid = 2 }), "Rclunk tag=13 fid=2");
    (F.R (14, F.Rremove { fid = 3 }), "Rremove tag=14 fid=3");
    (F.R (15, F.Rstat { stat = print_dir }), "Rstat tag=15 name=motd");
    (F.R (16, F.Rwstat { fid = 2 }), "Rwstat tag=16 fid=2");
    (F.R (17, F.Rflush), "Rflush tag=17");
  ]

let test_print_every_kind () =
  List.iter
    (fun (m, want) ->
      let s = F.encode m in
      let name = F.message_name m in
      Alcotest.(check (option string)) name (Some want) (render s);
      (* one byte too many or too few is not a message *)
      let long = s ^ "\000" and short = String.sub s 0 (String.length s - 1) in
      Alcotest.(check (option string)) (name ^ " trailing byte") None (render long);
      Alcotest.(check (option string)) (name ^ " truncated") None (render short);
      Alcotest.(check bool) (name ^ " trailing byte is an error") true
        (Result.is_error (F.decode_opt long));
      Alcotest.(check bool) (name ^ " truncated is an error") true
        (Result.is_error (F.decode_opt short)))
    print_table

let test_snoopy_decodes_ninep () =
  let enc m = F.encode m in
  Alcotest.(check (option string)) "Tread"
    (Some "Tread tag=7 fid=3 offset=64 count=512")
    (render
       (enc (F.T (7, F.Tread { fid = 3; offset = 64L; count = 512 }))));
  Alcotest.(check (option string)) "Tattach"
    (Some "Tattach tag=1 fid=0 uname=philw aname=")
    (render
       (enc (F.T (1, F.Tattach { fid = 0; uname = "philw"; aname = "" }))));
  Alcotest.(check (option string)) "Rread count only"
    (Some "Rread tag=7 count=5")
    (render
       (enc (F.R (7, F.Rread { data = "hello" }))));
  (* garbage and truncation are rejected, never mis-rendered *)
  Alcotest.(check (option string)) "empty" None
    (render "");
  Alcotest.(check (option string)) "unknown type" None
    (render "\xff\x01\x00");
  let tread = enc (F.T (7, F.Tread { fid = 3; offset = 64L; count = 512 })) in
  Alcotest.(check (option string)) "truncated Tread" None
    (render (String.sub tread 0 5))

let test_oversize_name_rejected () =
  Alcotest.(check bool) "28-byte name rejected" true
    (try
       ignore
         (F.encode (F.T (1, F.Twalk { fid = 1; name = String.make 28 'x' })));
       false
     with F.Bad_message _ -> true)

(* a 2-byte count carries at most 65535 bytes; a longer string used to
   be written with its count truncated, so a 70,000-byte Twrite decoded
   as a 4,464-byte one *)
let test_oversize_data_rejected () =
  let twrite n =
    F.T (1, F.Twrite { fid = 1; offset = 0L; data = String.make n 'd' })
  in
  let refused m =
    match F.encode m with _ -> false | exception F.Bad_message _ -> true
  in
  Alcotest.(check bool) "70,000-byte Twrite refused" true
    (refused (twrite 70_000));
  Alcotest.(check bool) "65,536-byte Rread refused" true
    (refused (F.R (1, F.Rread { data = String.make 65_536 'd' })));
  Alcotest.(check bool) "65,535-byte Twrite roundtrips" true
    (F.decode (F.encode (twrite 65_535)) = twrite 65_535);
  Alcotest.(check bool) "Frame.wrap refuses 65,536 bytes" true
    (match F.Frame.wrap (String.make 65_536 'd') with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* ---- client/server over a pipe with ramfs ---- *)

let with_ramfs f =
  let eng = Sim.Engine.create () in
  let ram = Ninep.Ramfs.make ~name:"ram" () in
  let ct, st = Ninep.Transport.pipe eng in
  let _srv = Ninep.Server.serve eng (Ninep.Ramfs.fs ram) st in
  let finished = ref false in
  let _cli =
    Sim.Proc.spawn eng ~name:"client" (fun () ->
        let c = Ninep.Client.make eng ct in
        Ninep.Client.session c;
        f eng ram c;
        finished := true)
  in
  Sim.Engine.run eng;
  Alcotest.(check bool) "client body completed" true !finished

let test_attach_walk_read () =
  with_ramfs (fun _eng ram c ->
      Ninep.Ramfs.add_file ram "/lib/ndb/local" "sys=helix\n";
      let root = Ninep.Client.attach c ~uname:"philw" ~aname:"" in
      let f = Ninep.Client.walk_path c root [ "lib"; "ndb"; "local" ] in
      ignore (Ninep.Client.open_ c f Ninep.Fcall.Oread);
      Alcotest.(check string) "contents" "sys=helix\n"
        (Ninep.Client.read_all c f);
      Ninep.Client.clunk c f)

(* the client refuses the oversized message before sending it: the
   call fails with [Err], and neither a span nor a tag is left behind *)
let test_oversize_write_fails_cleanly () =
  with_ramfs (fun eng ram c ->
      let tr = Obs.Trace.create () in
      Sim.Engine.attach_obs eng tr;
      Ninep.Ramfs.add_file ram "/f" "";
      let root = Ninep.Client.attach c ~uname:"philw" ~aname:"" in
      let f = Ninep.Client.walk_path c root [ "f" ] in
      ignore (Ninep.Client.open_ c f Ninep.Fcall.Owrite);
      Alcotest.(check bool) "70,000-byte write raises Err" true
        (match Ninep.Client.write c f ~offset:0L (String.make 70_000 'd') with
         | _ -> false
         | exception Ninep.Client.Err _ -> true);
      Alcotest.(check int) "no span left open" 0 (Obs.Span.open_count tr);
      Alcotest.(check int) "next write goes through" 2
        (Ninep.Client.write c f ~offset:0L "ok");
      Alcotest.(check (option string)) "file holds only that" (Some "ok")
        (Ninep.Ramfs.read_file ram "/f"))

let test_create_write_read_back () =
  with_ramfs (fun _eng ram c ->
      let root = Ninep.Client.attach c ~uname:"philw" ~aname:"" in
      let f = Ninep.Client.clone c root in
      ignore
        (Ninep.Client.create c f ~name:"greeting" ~perm:0o664l
           Ninep.Fcall.Owrite);
      let n = Ninep.Client.write c f ~offset:0L "hello, plan 9" in
      Alcotest.(check int) "write count" 13 n;
      Ninep.Client.clunk c f;
      Alcotest.(check (option string)) "visible in tree"
        (Some "hello, plan 9")
        (Ninep.Ramfs.read_file ram "/greeting"))

let test_walk_failure_keeps_fid () =
  with_ramfs (fun _eng ram c ->
      Ninep.Ramfs.mkdir ram "/dir";
      let root = Ninep.Client.attach c ~uname:"u" ~aname:"" in
      let f = Ninep.Client.clone c root in
      (try
         ignore (Ninep.Client.walk c f "nonexistent");
         Alcotest.fail "walk should fail"
       with Ninep.Client.Err e ->
         Alcotest.(check string) "error" "file does not exist" e);
      (* fid still usable where it was *)
      ignore (Ninep.Client.walk c f "dir");
      Ninep.Client.clunk c f)

let test_clone_independence () =
  with_ramfs (fun _eng ram c ->
      Ninep.Ramfs.add_file ram "/a/f" "data";
      let root = Ninep.Client.attach c ~uname:"u" ~aname:"" in
      let f1 = Ninep.Client.clone c root in
      let f2 = Ninep.Client.clone c f1 in
      ignore (Ninep.Client.walk c f1 "a");
      (* f2 must still point at the root *)
      let d = Ninep.Client.stat c f2 in
      Alcotest.(check string) "f2 still at root" "/" d.Ninep.Fcall.d_name;
      Ninep.Client.clunk c f1;
      Ninep.Client.clunk c f2)

let test_directory_read () =
  with_ramfs (fun _eng ram c ->
      Ninep.Ramfs.add_file ram "/eia1" "";
      Ninep.Ramfs.add_file ram "/eia1ctl" "";
      Ninep.Ramfs.add_file ram "/eia2" "";
      let root = Ninep.Client.attach c ~uname:"u" ~aname:"" in
      let f = Ninep.Client.clone c root in
      ignore (Ninep.Client.open_ c f Ninep.Fcall.Oread);
      let names =
        List.sort compare
          (List.map (fun d -> d.Ninep.Fcall.d_name) (Ninep.Client.read_dir c f))
      in
      Alcotest.(check (list string)) "ls" [ "eia1"; "eia1ctl"; "eia2" ] names;
      Ninep.Client.clunk c f)

let test_stat_wstat_rename () =
  with_ramfs (fun _eng ram c ->
      Ninep.Ramfs.add_file ram "/old" "x";
      let root = Ninep.Client.attach c ~uname:"u" ~aname:"" in
      let f = Ninep.Client.walk_path c root [ "old" ] in
      let d = Ninep.Client.stat c f in
      Ninep.Client.wstat c f { d with Ninep.Fcall.d_name = "new" };
      Alcotest.(check bool) "renamed" true (Ninep.Ramfs.exists ram "/new");
      Alcotest.(check bool) "old gone" false (Ninep.Ramfs.exists ram "/old");
      Ninep.Client.clunk c f)

let test_remove () =
  with_ramfs (fun _eng ram c ->
      Ninep.Ramfs.add_file ram "/doomed" "x";
      let root = Ninep.Client.attach c ~uname:"u" ~aname:"" in
      let f = Ninep.Client.walk_path c root [ "doomed" ] in
      Ninep.Client.remove c f;
      Alcotest.(check bool) "gone" false (Ninep.Ramfs.exists ram "/doomed"))

let test_remove_nonempty_dir_fails () =
  with_ramfs (fun _eng ram c ->
      Ninep.Ramfs.add_file ram "/d/f" "x";
      let root = Ninep.Client.attach c ~uname:"u" ~aname:"" in
      let f = Ninep.Client.walk_path c root [ "d" ] in
      try
        Ninep.Client.remove c f;
        Alcotest.fail "remove should fail"
      with Ninep.Client.Err e ->
        Alcotest.(check string) "error" "directory not empty" e)

let test_open_dir_for_write_fails () =
  with_ramfs (fun _eng ram c ->
      Ninep.Ramfs.mkdir ram "/d";
      let root = Ninep.Client.attach c ~uname:"u" ~aname:"" in
      let f = Ninep.Client.walk_path c root [ "d" ] in
      try
        ignore (Ninep.Client.open_ c f Ninep.Fcall.Owrite);
        Alcotest.fail "open should fail"
      with Ninep.Client.Err _ -> Ninep.Client.clunk c f)

let test_read_without_open_fails () =
  with_ramfs (fun _eng ram c ->
      Ninep.Ramfs.add_file ram "/f" "x";
      let root = Ninep.Client.attach c ~uname:"u" ~aname:"" in
      let f = Ninep.Client.walk_path c root [ "f" ] in
      try
        ignore (Ninep.Client.read c f ~offset:0L ~count:10);
        Alcotest.fail "read should fail"
      with Ninep.Client.Err _ -> Ninep.Client.clunk c f)

let test_qid_dir_bit () =
  with_ramfs (fun _eng ram c ->
      Ninep.Ramfs.mkdir ram "/d";
      Ninep.Ramfs.add_file ram "/f" "";
      let root = Ninep.Client.attach c ~uname:"u" ~aname:"" in
      let d = Ninep.Client.walk_path c root [ "d" ] in
      let f = Ninep.Client.walk_path c root [ "f" ] in
      Alcotest.(check bool) "dir bit set" true
        (Ninep.Fcall.qid_is_dir (Ninep.Client.stat c d).Ninep.Fcall.d_qid);
      Alcotest.(check bool) "file bit clear" false
        (Ninep.Fcall.qid_is_dir (Ninep.Client.stat c f).Ninep.Fcall.d_qid))

let test_concurrent_rpcs_demux () =
  (* two processes sharing one connection: tags must demultiplex *)
  let eng = Sim.Engine.create () in
  let ram = Ninep.Ramfs.make ~name:"ram" () in
  Ninep.Ramfs.add_file ram "/a" "contents-a";
  Ninep.Ramfs.add_file ram "/b" "contents-b";
  let ct, st = Ninep.Transport.pipe eng in
  let _srv = Ninep.Server.serve eng (Ninep.Ramfs.fs ram) st in
  let c = Ninep.Client.make eng ct in
  let got_a = ref "" and got_b = ref "" in
  let reader name cell =
    Sim.Proc.spawn eng (fun () ->
        let root = Ninep.Client.attach c ~uname:"u" ~aname:"" in
        let f = Ninep.Client.walk_path c root [ name ] in
        ignore (Ninep.Client.open_ c f Ninep.Fcall.Oread);
        cell := Ninep.Client.read_all c f;
        Ninep.Client.clunk c f)
  in
  let _setup =
    Sim.Proc.spawn eng (fun () ->
        Ninep.Client.session c;
        ignore (reader "a" got_a);
        ignore (reader "b" got_b))
  in
  Sim.Engine.run eng;
  Alcotest.(check string) "a" "contents-a" !got_a;
  Alcotest.(check string) "b" "contents-b" !got_b

let test_hangup_fails_outstanding () =
  let eng = Sim.Engine.create () in
  let ct, _st = Ninep.Transport.pipe eng in
  (* no server: the rpc would block forever without the hangup *)
  let c = Ninep.Client.make eng ct in
  let failed = ref false in
  let _p =
    Sim.Proc.spawn eng (fun () ->
        try Ninep.Client.session c with Ninep.Client.Err _ -> failed := true)
  in
  Sim.Engine.after eng 1.0 (fun () -> Ninep.Client.hangup c);
  Sim.Engine.run eng;
  Alcotest.(check bool) "outstanding rpc failed" true !failed;
  Alcotest.(check bool) "client dead" false (Ninep.Client.alive c)

let test_session_resets_fids () =
  with_ramfs (fun _eng _ram c ->
      let root = Ninep.Client.attach c ~uname:"u" ~aname:"" in
      Ninep.Client.session c;
      (* the old fid is gone after a new session *)
      try
        ignore (Ninep.Client.stat c root);
        Alcotest.fail "stat should fail after session"
      with Ninep.Client.Err e ->
        Alcotest.(check string) "unknown fid" "unknown fid" e)

(* a server whose file reads block: with ~threaded, a slow read must
   not stall other requests — the property exportfs needs *)
let test_threaded_server_no_stall () =
  let eng = Sim.Engine.create () in
  let slow_fs =
    let quid = { F.qpath = 1; qvers = 0 } in
    {
      Ninep.Server.fs_name = "slowfs";
      fs_attach = (fun ~uname:_ ~aname:_ -> Ok ());
      fs_qid = (fun () -> quid);
      fs_walk = (fun () _ -> Ok ());
      fs_open = (fun () _ ~trunc:_ -> Ok ());
      fs_read =
        (fun () ~offset:_ ~count:_ ->
          (* the first read sleeps a long time; later ones are quick *)
          Sim.Time.sleep eng 10.0;
          Ok "slow");
      fs_write = (fun () ~offset:_ ~data -> Ok (String.length data));
      fs_create = (fun () ~name:_ ~perm:_ _ -> Error "no");
      fs_remove = (fun () -> Error "no");
      fs_stat = (fun () -> Error "no");
      fs_wstat = (fun () _ -> Error "no");
      fs_clunk = ignore;
      fs_clone = Result.ok;
      fs_clwalk = (fun () _ -> Ok ());
    }
  in
  let ct, st = Ninep.Transport.pipe eng in
  let _srv = Ninep.Server.serve ~threaded:true eng slow_fs st in
  let c = Ninep.Client.make eng ct in
  let fast_done_at = ref 0. in
  let _setup =
    Sim.Proc.spawn eng (fun () ->
        Ninep.Client.session c;
        let f1 = Ninep.Client.attach c ~uname:"u" ~aname:"" in
        let f2 = Ninep.Client.attach c ~uname:"u" ~aname:"" in
        ignore (Ninep.Client.open_ c f1 F.Oread);
        ignore (Ninep.Client.open_ c f2 F.Oread);
        (* slow read in one process... *)
        ignore
          (Sim.Proc.spawn eng (fun () ->
               ignore (Ninep.Client.read c f1 ~offset:0L ~count:10)));
        (* ...a write in another must not wait behind it *)
        ignore
          (Sim.Proc.spawn eng (fun () ->
               Sim.Time.sleep eng 0.1;
               ignore (Ninep.Client.write c f2 ~offset:0L "quick");
               fast_done_at := Sim.Engine.now eng)))
  in
  Sim.Engine.run eng;
  Alcotest.(check bool) "write finished while read blocked" true
    (!fast_done_at > 0. && !fast_done_at < 5.0)

(* Transport EOF with two reads in flight on a threaded server: both
   handlers are killed (each takes a second to unwind) and joined, the
   fid's clunk runs only after both died, and no R is sent after EOF.
   Each read's count equals its tag, which names the handler serving it. *)
let test_threaded_eof_kills_handlers () =
  let eng = Sim.Engine.create () in
  let handlers = ref [] in
  let killed = ref [] in
  let clunks = ref [] in
  let fs =
    let quid = { F.qpath = 1; qvers = 0 } in
    {
      Ninep.Server.fs_name = "eoffs";
      fs_attach = (fun ~uname:_ ~aname:_ -> Ok ());
      fs_qid = (fun () -> quid);
      fs_walk = (fun () _ -> Ok ());
      fs_open = (fun () _ ~trunc:_ -> Ok ());
      fs_read =
        (fun () ~offset ~count ->
          handlers := Sim.Proc.self () :: !handlers;
          (try Sim.Time.sleep eng (Int64.to_float offset)
           with Sim.Proc.Killed ->
             killed := Printf.sprintf "t%d" count :: !killed;
             Sim.Time.sleep eng 1.0;
             raise Sim.Proc.Killed);
          Ok "done");
      fs_write = (fun () ~offset:_ ~data -> Ok (String.length data));
      fs_create = (fun () ~name:_ ~perm:_ _ -> Error "no");
      fs_remove = (fun () -> Error "no");
      fs_stat = (fun () -> Error "no");
      fs_wstat = (fun () _ -> Error "no");
      fs_clunk =
        (fun () -> clunks := List.map Sim.Proc.alive !handlers :: !clunks);
      fs_clone = Result.ok;
      fs_clwalk = (fun () _ -> Ok ());
    }
  in
  let ct, st = Ninep.Transport.pipe eng in
  let eof = ref false and late = ref 0 in
  let st =
    {
      st with
      Ninep.Transport.t_recv =
        (fun () ->
          let r = st.Ninep.Transport.t_recv () in
          if r = None then eof := true;
          r);
      t_send =
        (fun m ->
          if !eof then incr late;
          st.Ninep.Transport.t_send m);
    }
  in
  let _srv = Ninep.Server.serve ~threaded:true eng fs st in
  let _client =
    Sim.Proc.spawn eng (fun () ->
        let send tag t = ct.Ninep.Transport.t_send (F.encode (F.T (tag, t))) in
        send 1 (F.Tattach { fid = 1; uname = "u"; aname = "" });
        send 2 (F.Topen { fid = 1; mode = F.Oread; trunc = false });
        send 6 (F.Tread { fid = 1; offset = 5L; count = 6 });
        send 5 (F.Tread { fid = 1; offset = 5L; count = 5 });
        Sim.Time.sleep eng 1.0;
        ct.Ninep.Transport.t_close ())
  in
  Sim.Engine.run eng;
  Alcotest.(check int) "two handlers blocked in fs_read" 2
    (List.length !handlers);
  Alcotest.(check (list string)) "killed in tag order"
    [ "t5"; "t6" ]
    (List.rev !killed);
  Alcotest.(check bool) "both dead" true
    (List.for_all (fun p -> not (Sim.Proc.alive p)) !handlers);
  Alcotest.(check (list (list bool))) "one clunk, after both died"
    [ [ false; false ] ] !clunks;
  Alcotest.(check int) "no R after EOF" 0 !late

(* A threaded server whose reads block for [offset] virtual seconds and
   take one more second to unwind when flushed, the way a relaying
   server passes the flush on.  [script] drives the raw client end:
   [send tag t] transmits at the current time; [on_reply send tag r]
   runs as each R arrives.  Returns every T sent and R received, in order. *)
let blocking_fs eng =
  let quid = { F.qpath = 1; qvers = 0 } in
  {
    Ninep.Server.fs_name = "blockfs";
    fs_attach = (fun ~uname:_ ~aname:_ -> Ok ());
    fs_qid = (fun () -> quid);
    fs_walk = (fun () _ -> Ok ());
    fs_open = (fun () _ ~trunc:_ -> Ok ());
    fs_read =
      (fun () ~offset ~count:_ ->
        (try Sim.Time.sleep eng (Int64.to_float offset)
         with Sim.Proc.Killed ->
           Sim.Time.sleep eng 1.0;
           raise Sim.Proc.Killed);
        Ok "done");
    fs_write = (fun () ~offset:_ ~data -> Ok (String.length data));
    fs_create = (fun () ~name:_ ~perm:_ _ -> Error "no");
    fs_remove = (fun () -> Error "no");
    fs_stat = (fun () -> Error "no");
    fs_wstat = (fun () _ -> Error "no");
    fs_clunk = ignore;
    fs_clone = Result.ok;
    fs_clwalk = (fun () _ -> Ok ());
  }

let tag_trace ?sched ~script ~on_reply () =
  let eng = Sim.Engine.create ?sched () in
  let ct, st = Ninep.Transport.pipe eng in
  let _srv = Ninep.Server.serve ~threaded:true eng (blocking_fs eng) st in
  let log = ref [] in
  let send tag t =
    log := `T (tag, t) :: !log;
    ct.Ninep.Transport.t_send (F.encode (F.T (tag, t)))
  in
  let _recorder =
    Sim.Proc.spawn eng (fun () ->
        let rec loop () =
          match ct.Ninep.Transport.t_recv () with
          | None -> ()
          | Some raw ->
            (match F.decode raw with
            | F.R (tag, r) ->
              log := `R (tag, r) :: !log;
              on_reply send tag r
            | F.T _ -> ());
            loop ()
        in
        loop ())
  in
  let _client =
    Sim.Proc.spawn eng (fun () ->
        send 1 (F.Tattach { fid = 1; uname = "u"; aname = "" });
        send 2 (F.Topen { fid = 1; mode = F.Oread; trunc = false });
        Sim.Time.sleep eng 0.1;
        script ~sleep:(Sim.Time.sleep eng) send;
        Sim.Time.sleep eng 60.;
        ct.Ninep.Transport.t_close ())
  in
  Sim.Engine.run eng;
  List.rev !log

(* The invariants, with tags as the only link between T and R: a tag
   never has more Rs than Ts, and once a Tflush naming a tag is
   answered, every request then outstanding under that tag is dead: a
   later R under it must answer a T sent after the Rflush. *)
let check_tags trace =
  let rec go outstanding flushes = function
    | [] -> ()
    | `T (tag, t) :: rest ->
      let flushes =
        match t with F.Tflush { oldtag } -> (tag, oldtag) :: flushes | _ -> flushes
      in
      go ((tag, ref false) :: outstanding) flushes rest
    | `R (tag, r) :: rest ->
      (match List.find_opt (fun (t, answered) -> t = tag && not !answered)
               (List.rev outstanding) with
      | Some (_, answered) -> answered := true
      | None -> Alcotest.failf "an R under tag %d answers no outstanding T" tag);
      let outstanding =
        match r with
        | F.Rflush ->
          let oldtag = List.assoc tag flushes in
          (* the flushed requests may never be answered *)
          List.filter (fun (t, answered) -> t <> oldtag || !answered) outstanding
        | _ -> outstanding
      in
      go outstanding flushes rest
  in
  go [] [] trace

let rtags trace tag =
  List.filter_map (function `R (t, r) when t = tag -> Some r | _ -> None) trace

(* two requests under one tag: the first finishes, then a Tflush names
   the tag.  Holding both would let the second answer after Rflush. *)
let test_tag_reuse_in_flight () =
  let flushed = ref false in
  let trace =
    tag_trace
      ~on_reply:(fun send tag r ->
        match (tag, r) with
        | 5, F.Rread _ when not !flushed ->
          flushed := true;
          send 6 (F.Tflush { oldtag = 5 })
        | _ -> ())
      ~script:(fun ~sleep:_ send ->
        send 5 (F.Tread { fid = 1; offset = 1L; count = 10 });
        send 5 (F.Tread { fid = 1; offset = 10L; count = 10 }))
      ()
  in
  check_tags trace;
  Alcotest.(check (list string)) "replies under tag 5" [ "tag in use"; "read" ]
    (List.map
       (function F.Rerror e -> e | F.Rread _ -> "read" | _ -> "other")
       (rtags trace 5))

(* Tflush, then the tag reused as soon as Rflush arrives, while the
   flushed handler is still unwinding; then that reuse is flushed too *)
let test_tag_reuse_after_flush () =
  let trace =
    tag_trace
      ~on_reply:(fun send tag r ->
        match (tag, r) with
        | 6, F.Rflush -> send 5 (F.Tread { fid = 1; offset = 10L; count = 10 })
        | _ -> ())
      ~script:(fun ~sleep send ->
        send 5 (F.Tread { fid = 1; offset = 10L; count = 10 });
        send 6 (F.Tflush { oldtag = 5 });
        (* after the first handler has unwound *)
        sleep 2.0;
        send 7 (F.Tflush { oldtag = 5 }))
      ()
  in
  check_tags trace;
  Alcotest.(check int) "nothing answers under tag 5" 0
    (List.length (rtags trace 5))

(* A Tflush that arrives the instant its victim's read ends: under some
   schedules the victim has been woken, but has not yet run, when the
   kill comes.  Rflush is final all the same: no seed may see an R under
   tag 5 after it. *)
let test_flush_race_rflush_final () =
  let races =
    List.filter
      (fun seed ->
        let trace =
          tag_trace ~sched:(Sim.Sched.Shuffle seed)
            ~on_reply:(fun _ _ _ -> ())
            ~script:(fun ~sleep send ->
              send 5 (F.Tread { fid = 1; offset = 1L; count = 10 });
              sleep 1.0;
              send 6 (F.Tflush { oldtag = 5 }))
            ()
        in
        match check_tags trace with () -> false | exception _ -> true)
      (List.init 200 (fun i -> i + 1))
  in
  Alcotest.(check (list int)) "shuffle seeds with an R after Rflush" [] races

(* The threaded server's pool: it grows to the connection's peak
   concurrency, reuses idle workers, and replaces a flushed one. *)
let test_worker_pool () =
  let eng = Sim.Engine.create () in
  let ct, st = Ninep.Transport.pipe eng in
  let srv = Ninep.Server.serve ~threaded:true eng (blocking_fs eng) st in
  let send tag t = ct.Ninep.Transport.t_send (F.encode (F.T (tag, t))) in
  let recv () =
    match ct.Ninep.Transport.t_recv () with
    | Some raw -> (
      match F.decode raw with
      | F.R (tag, r) -> (tag, r)
      | F.T _ -> Alcotest.fail "a T from the server")
    | None -> Alcotest.fail "server hung up"
  in
  let workers = ref [] in
  let _driver =
    Sim.Proc.spawn eng (fun () ->
        let s0 = Sim.Engine.spawned eng in
        let count what =
          workers := (what, Sim.Engine.spawned eng - s0) :: !workers
        in
        send 1 (F.Tattach { fid = 1; uname = "u"; aname = "" });
        ignore (recv ());
        send 2 (F.Topen { fid = 1; mode = F.Oread; trunc = false });
        ignore (recv ());
        for _ = 1 to 98 do
          send 3 (F.Tread { fid = 1; offset = 0L; count = 10 });
          ignore (recv ())
        done;
        count "100 sequential requests";
        List.iter
          (fun tag -> send tag (F.Tread { fid = 1; offset = 10L; count = 10 }))
          [ 4; 5; 6 ];
        Sim.Time.sleep eng 1.0;
        count "three blocked reads";
        (* every worker is busy, so the Tflush takes a fourth; once the
           flushed one has unwound, that one serves the next request *)
        send 7 (F.Tflush { oldtag = 4 });
        Alcotest.(check bool) "Rflush" true (recv () = (7, F.Rflush));
        Sim.Time.sleep eng 2.0;
        send 8 (F.Tread { fid = 1; offset = 0L; count = 10 });
        Alcotest.(check bool) "next request served" true
          (recv () = (8, F.Rread { data = "done" }));
        count "flush, then one more request";
        Alcotest.(check (list int)) "the other two reads complete" [ 5; 6 ]
          (List.sort compare [ fst (recv ()); fst (recv ()) ]);
        ct.Ninep.Transport.t_close ())
  in
  Sim.Engine.run eng;
  Alcotest.(check (list (pair string int))) "workers spawned"
    [ ("100 sequential requests", 1); ("three blocked reads", 3);
      ("flush, then one more request", 4) ]
    (List.rev !workers);
  Alcotest.(check bool) "server exited at EOF" false (Sim.Proc.alive srv);
  Alcotest.(check int) "no worker outlives the connection" 0
    (Sim.Engine.live_procs eng)

let test_pp_dir_format () =
  let d =
    {
      F.d_name = "eia1";
      d_uid = "bootes";
      d_gid = "bootes";
      d_qid = { F.qpath = 5; qvers = 0 };
      d_mode = 0o666l;
      d_atime = 0l;
      d_mtime = 0l;
      d_length = 0L;
      d_type = Char.code 't';
      d_dev = 0;
    }
  in
  let s = Format.asprintf "%a" F.pp_dir d in
  Alcotest.(check string) "ls -l style"
    "-rw-rw-rw- t 0 bootes   bootes          0 eia1" s

(* ---- device tables ---- *)

(* a device with a clone file and [n] conversations of two files each;
   [refs] counts the open fids holding each conversation *)
let devtab_fixture n =
  let module D = Ninep.Devtab in
  let refs = Array.make n 0 in
  let fs =
    D.fs
      {
        D.table with
        fs_name = "fixture";
        owner = "o";
        letter = 'x';
        top = [| { D.file with name = "clone"; open_ = (fun nd -> D.redirect nd 0 "ctl") } |];
        convs =
          {
            conv_files =
              [|
                {
                  D.file with
                  name = "ctl";
                  read =
                    (fun nd ~offset ~count ->
                      Ok (Ninep.Server.slice (string_of_int (D.conv nd)) ~offset ~count));
                };
                { D.file with name = "data"; perm = 0o444l };
              |];
            number = Fun.id;
            find = (fun i -> if i >= 0 && i < n then Some i else None);
            listing = (fun () -> List.init n Fun.id);
            hold = (fun c -> refs.(c) <- refs.(c) + 1);
            release = (fun c -> refs.(c) <- refs.(c) - 1);
          };
      }
  in
  (fs, refs)

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let devtab_walk fs names =
  List.fold_left
    (fun nd name -> ok (fs.Ninep.Server.fs_walk nd name))
    (ok (fs.Ninep.Server.fs_attach ~uname:"u" ~aname:""))
    names

let test_devtab_layout () =
  let fs, refs = devtab_fixture 5 in
  let qpath names = (fs.Ninep.Server.fs_qid (devtab_walk fs names)).F.qpath in
  Alcotest.(check int) "root" (F.qdir_bit lor 1) (qpath []);
  Alcotest.(check int) "top-level file" 2 (qpath [ "clone" ]);
  Alcotest.(check int) "conversation 3" (F.qdir_bit lor 0x400) (qpath [ "3" ]);
  Alcotest.(check int) "its second file" 0x402 (qpath [ "3"; "data" ]);
  Alcotest.(check int) ".. from a file" (F.qdir_bit lor 0x400)
    (qpath [ "3"; "data"; ".." ]);
  Alcotest.(check int) ".. from a conversation" (F.qdir_bit lor 1)
    (qpath [ "3"; ".." ]);
  let d = ok (fs.fs_stat (devtab_walk fs [ "3"; "data" ])) in
  Alcotest.(check (list string)) "stat" [ "data"; "o"; "o"; "444"; "x" ]
    [ d.F.d_name; d.F.d_uid; d.F.d_gid; Printf.sprintf "%lo" d.F.d_mode;
      String.make 1 (Char.chr d.F.d_type) ];
  let walk_err names name =
    match fs.fs_walk (devtab_walk fs names) name with
    | Ok _ -> "ok"
    | Error e -> e
  in
  Alcotest.(check (list string)) "bad walks"
    [ "file does not exist"; "file does not exist"; "file does not exist" ]
    [ walk_err [] "5"; walk_err [ "3" ] "clone"; walk_err [ "3"; "ctl" ] "x" ];
  (* opening clone yields conversation 0's ctl, held until clunk *)
  let nd = devtab_walk fs [ "clone" ] in
  ok (fs.fs_open nd F.Oread ~trunc:false);
  Alcotest.(check int) "redirected" 0x101 (fs.fs_qid nd).F.qpath;
  Alcotest.(check string) "reads the ctl" "0" (ok (fs.fs_read nd ~offset:0L ~count:10));
  Alcotest.(check int) "held" 1 refs.(0);
  fs.fs_clunk nd;
  Alcotest.(check int) "released" 0 refs.(0)

let test_devtab_dir_reads_whole_entries () =
  let fs, _ = devtab_fixture 40 in
  let root = devtab_walk fs [] in
  ok (fs.Ninep.Server.fs_open root F.Oread ~trunc:false);
  let read ~offset ~count = ok (fs.fs_read root ~offset:(Int64.of_int offset) ~count) in
  let whole = read ~offset:0 ~count:F.maxfdata in
  Alcotest.(check int) "clone + 40 conversations" (41 * F.dirlen) (String.length whole);
  List.iter
    (fun count ->
      (* sequential reads at any count reassemble the listing... *)
      let b = Buffer.create 8192 in
      let rec go off =
        let s = read ~offset:off ~count in
        Alcotest.(check int) "whole entries" 0 (String.length s mod F.dirlen);
        if s <> "" then begin
          Buffer.add_string b s;
          go (off + String.length s)
        end
      in
      if count >= F.dirlen then begin
        go 0;
        Alcotest.(check string) (Printf.sprintf "count %d" count) whole (Buffer.contents b)
      end
      else Alcotest.(check string) "too small for one entry" "" (read ~offset:0 ~count);
      (* ...and an offset inside an entry returns nothing *)
      List.iter
        (fun off ->
          Alcotest.(check string) (Printf.sprintf "offset %d" off) "" (read ~offset:off ~count))
        [ 1; 115; 117; 500; 4000 ])
    [ 1; 115; 116; 117; 231; 232; 1000; F.maxfdata ]

let test_devtab_clone_is_unopened () =
  let fs, refs = devtab_fixture 2 in
  let nd = devtab_walk fs [ "1"; "ctl" ] in
  ok (fs.Ninep.Server.fs_open nd F.Ordwr ~trunc:false);
  let c = ok (fs.fs_clone nd) in
  Alcotest.(check (result string string)) "clone refuses reads" (Error "not open")
    (fs.fs_read c ~offset:0L ~count:10);
  Alcotest.(check (result int string)) "and writes" (Error "not open")
    (fs.fs_write c ~offset:0L ~data:"x");
  fs.fs_clunk c;
  Alcotest.(check int) "unopened clone holds nothing" 1 refs.(1);
  Alcotest.(check (result string string)) "original still open" (Ok "1")
    (fs.fs_read nd ~offset:0L ~count:10);
  Alcotest.(check (result int string)) "no write handler" (Error "permission denied")
    (fs.fs_write nd ~offset:0L ~data:"x");
  fs.fs_clunk nd;
  Alcotest.(check int) "released" 0 refs.(1)

(* a Tclwalk whose newfid is its own fid walks that fid: the node it
   held goes back to the server, here releasing its conversation *)
let test_clwalk_onto_own_fid () =
  let fs, refs = devtab_fixture 2 in
  let eng = Sim.Engine.create () in
  let ct, st = Ninep.Transport.pipe eng in
  let _srv = Ninep.Server.serve eng fs st in
  let finished = ref false in
  let _cli =
    Sim.Proc.spawn eng ~name:"client" (fun () ->
        let c = Ninep.Client.make eng ct in
        Ninep.Client.session c;
        List.iter
          (fun t -> ignore (Ninep.Client.rpc c t))
          [ F.Tattach { fid = 1; uname = "u"; aname = "" };
            F.Tclwalk { fid = 1; newfid = 2; name = "1" };
            F.Twalk { fid = 2; name = "ctl" };
            F.Topen { fid = 2; mode = F.Ordwr; trunc = false } ];
        Alcotest.(check int) "the open fid holds conversation 1" 1 refs.(1);
        ignore
          (Ninep.Client.rpc c (F.Tclwalk { fid = 2; newfid = 2; name = ".." }));
        Alcotest.(check int) "its old node was clunked" 0 refs.(1);
        finished := true)
  in
  Sim.Engine.run eng;
  Alcotest.(check bool) "client body completed" true !finished

let test_devtab_service_replies_per_fid () =
  let fs =
    Ninep.Devtab.service ~name:"echo" ~file:"echo"
      ~show:(fun () -> "default\n")
      (fun req -> if req = "bad" then Error "echo: bad" else Ok (req ^ "\n"))
  in
  let opened () =
    let nd = devtab_walk fs [ "echo" ] in
    ok (fs.Ninep.Server.fs_open nd F.Ordwr ~trunc:false);
    nd
  in
  let a = opened () and b = opened () in
  let read nd = ok (fs.fs_read nd ~offset:0L ~count:100) in
  Alcotest.(check string) "a read before any write shows the default" "default\n" (read a);
  ignore (ok (fs.fs_write a ~offset:0L ~data:"  one "));
  ignore (ok (fs.fs_write b ~offset:0L ~data:"two"));
  Alcotest.(check (list string)) "replies don't interleave" [ "one\n"; "two\n" ]
    [ read a; read b ];
  Alcotest.(check (result int string)) "handler error fails the write" (Error "echo: bad")
    (fs.fs_write a ~offset:0L ~data:"bad");
  Alcotest.(check string) "and keeps the reply" "one\n" (read a)

let test_ramfs_append_cost_flat () =
  (* a write that reaches end of file appends in place: a 512-byte
     write costs the same at the end of a 1 KiB file as at the end of a
     1 MiB one, instead of copying the whole file *)
  let append_cost size =
    let ram = Ninep.Ramfs.make ~name:"ram" () in
    Ninep.Ramfs.add_file ram "/f" (String.make size 'x');
    let fs = Ninep.Ramfs.fs ram in
    let ok = function Ok v -> v | Error e -> Alcotest.fail e in
    let nd = ok (fs.fs_walk (ok (fs.fs_attach ~uname:"u" ~aname:"")) "f") in
    ok (fs.fs_open nd F.Owrite ~trunc:false);
    let data = String.make 512 'y' in
    (* the first append may grow the file's buffer; measure the second *)
    ignore (ok (fs.fs_write nd ~offset:(Int64.of_int size) ~data));
    let before = Gc.allocated_bytes () in
    ignore (ok (fs.fs_write nd ~offset:(Int64.of_int (size + 512)) ~data));
    Gc.allocated_bytes () -. before
  in
  let small = append_cost 1024 and large = append_cost (1024 * 1024) in
  if Float.abs (large -. small) > 0.1 *. small then
    Alcotest.failf "512-byte append: %.0f bytes at 1 KiB, %.0f at 1 MiB" small
      large

let () =
  Alcotest.run "ninep"
    [
      ( "marshal",
        [
          QCheck_alcotest.to_alcotest prop_encode_decode;
          QCheck_alcotest.to_alcotest prop_dir_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_decode_garbage;
          Alcotest.test_case "oversize name" `Quick
            test_oversize_name_rejected;
          Alcotest.test_case "oversize data" `Quick test_oversize_data_rejected;
        ] );
      ( "snoopy",
        [
          Alcotest.test_case "decodes 9p" `Quick test_snoopy_decodes_ninep;
          Alcotest.test_case "prints every kind" `Quick test_print_every_kind;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "attach walk read" `Quick test_attach_walk_read;
          Alcotest.test_case "create write read" `Quick
            test_create_write_read_back;
          Alcotest.test_case "oversize write fails cleanly" `Quick
            test_oversize_write_fails_cleanly;
          Alcotest.test_case "walk failure keeps fid" `Quick
            test_walk_failure_keeps_fid;
          Alcotest.test_case "clone independence" `Quick
            test_clone_independence;
          Alcotest.test_case "directory read" `Quick test_directory_read;
          Alcotest.test_case "stat/wstat rename" `Quick
            test_stat_wstat_rename;
          Alcotest.test_case "remove" `Quick test_remove;
          Alcotest.test_case "remove nonempty dir" `Quick
            test_remove_nonempty_dir_fails;
          Alcotest.test_case "open dir for write" `Quick
            test_open_dir_for_write_fails;
          Alcotest.test_case "read without open" `Quick
            test_read_without_open_fails;
          Alcotest.test_case "qid dir bit" `Quick test_qid_dir_bit;
          Alcotest.test_case "ramfs append cost is flat" `Quick
            test_ramfs_append_cost_flat;
          Alcotest.test_case "session resets fids" `Quick
            test_session_resets_fids;
        ] );
      ( "devtab",
        [
          Alcotest.test_case "qid layout, walks, clone" `Quick test_devtab_layout;
          Alcotest.test_case "dir reads never split an entry" `Quick
            test_devtab_dir_reads_whole_entries;
          Alcotest.test_case "clone of an opened fid is unopened" `Quick
            test_devtab_clone_is_unopened;
          Alcotest.test_case "service replies per fid" `Quick
            test_devtab_service_replies_per_fid;
          Alcotest.test_case "Tclwalk onto its own fid" `Quick
            test_clwalk_onto_own_fid;
        ] );
      ( "mount-driver",
        [
          Alcotest.test_case "concurrent rpc demux" `Quick
            test_concurrent_rpcs_demux;
          Alcotest.test_case "hangup fails outstanding" `Quick
            test_hangup_fails_outstanding;
          Alcotest.test_case "threaded server doesn't stall" `Quick
            test_threaded_server_no_stall;
          Alcotest.test_case "threaded server at EOF" `Quick
            test_threaded_eof_kills_handlers;
          Alcotest.test_case "threaded server's worker pool" `Quick
            test_worker_pool;
          Alcotest.test_case "tag reused while in flight" `Quick
            test_tag_reuse_in_flight;
          Alcotest.test_case "tag reused right after Rflush" `Quick
            test_tag_reuse_after_flush;
          Alcotest.test_case "Rflush is final under 200 schedules" `Quick
            test_flush_race_rflush_final;
        ] );
      ( "format",
        [ Alcotest.test_case "pp_dir" `Quick test_pp_dir_format ] );
    ]
