(* Tests for the cfs caching proxy: hit/miss accounting, qid.vers
   invalidation, write-through coherence, LRU eviction, the ctl
   directory, the per-mount RPC counters, and bench determinism. *)

(* ramfs <- pipe <- cfs <- pipe <- client, plus a second direct client
   on the ramfs for "foreign" traffic behind the cache's back *)
let with_cfs ?config f =
  let eng = Sim.Engine.create () in
  let ram = Ninep.Ramfs.make ~name:"ram" () in
  let up_ct, up_st = Ninep.Transport.pipe eng in
  let _srv = Ninep.Server.serve eng (Ninep.Ramfs.fs ram) up_st in
  let cache = Cfs.make ?config eng ~upstream:up_ct () in
  let foreign_ct, foreign_st = Ninep.Transport.pipe eng in
  let _srv2 = Ninep.Server.serve eng (Ninep.Ramfs.fs ram) foreign_st in
  let finished = ref false in
  ignore
    (Sim.Proc.spawn eng ~name:"client" (fun () ->
         let c = Ninep.Client.make eng (Cfs.transport cache) in
         Ninep.Client.session c;
         let fc = Ninep.Client.make eng foreign_ct in
         Ninep.Client.session fc;
         f eng ram cache c fc;
         finished := true));
  Sim.Engine.run eng;
  Alcotest.(check bool) "client body completed" true !finished

let open_file c path =
  let root = Ninep.Client.attach c ~uname:"philw" ~aname:"" in
  let fid = Ninep.Client.walk_path c root
      (List.filter (fun s -> s <> "") (String.split_on_char '/' path))
  in
  ignore (Ninep.Client.open_ c fid Ninep.Fcall.Oread);
  Ninep.Client.clunk c root;
  fid

let read_at c fid off count =
  Ninep.Client.read c fid ~offset:(Int64.of_int off) ~count

let vers_of c path =
  let root = Ninep.Client.attach c ~uname:"u" ~aname:"" in
  let q = Ninep.Client.walk c root path in
  Ninep.Client.clunk c root;
  q.Ninep.Fcall.qvers

(* ---- hit/miss accounting ---- *)

let test_hit_miss () =
  with_cfs (fun _eng ram cache c _fc ->
      let body = String.make 3000 'a' in
      Ninep.Ramfs.add_file ram "/f" body;
      let fid = open_file c "/f" in
      Alcotest.(check string) "first read" body (Ninep.Client.read_all c fid);
      let m0 = Cfs.counter cache "misses" in
      let h0 = Cfs.counter cache "hits" in
      Alcotest.(check bool) "misses recorded" true (m0 > 0);
      Alcotest.(check bool) "at most the EOF probe hit" true (h0 <= 1);
      (* same data again: all from cache *)
      Alcotest.(check string) "re-read" body (Ninep.Client.read_all c fid);
      Alcotest.(check int) "no new misses" m0 (Cfs.counter cache "misses");
      Alcotest.(check bool) "hits recorded" true (Cfs.counter cache "hits" > h0);
      Alcotest.(check bool) "bytes cached" true (Cfs.cached_bytes cache > 0);
      Alcotest.(check int) "one file cached" 1 (Cfs.cached_files cache);
      Ninep.Client.clunk c fid)

let test_readahead_collapses_reads () =
  with_cfs (fun _eng ram cache c _fc ->
      (* 8192 bytes; 512-byte client reads; default 8x1024 read-ahead
         window means one upstream read for the whole file *)
      Ninep.Ramfs.add_file ram "/f" (String.make 8192 'b');
      let fid = open_file c "/f" in
      let rec go off =
        let d = read_at c fid off 512 in
        if d <> "" then go (off + String.length d)
      in
      go 0;
      (* one read-ahead fetch for the data plus one end-of-file probe
         (the cache cannot know the file size in advance) *)
      Alcotest.(check int) "two upstream reads" 2 (Cfs.counter cache "misses");
      Alcotest.(check int) "fifteen hits" 15 (Cfs.counter cache "hits");
      Ninep.Client.clunk c fid)

(* ---- qid.vers invalidation after a foreign write ---- *)

let test_foreign_write_invalidates () =
  with_cfs (fun _eng ram cache c fc ->
      Ninep.Ramfs.add_file ram "/f" "old contents";
      let fid = open_file c "/f" in
      Alcotest.(check string) "cold read" "old contents"
        (Ninep.Client.read_all c fid);
      Ninep.Client.clunk c fid;
      (* someone else rewrites the file behind the cache's back *)
      let ffid = open_file fc "/f" in
      ignore (Ninep.Client.clunk fc ffid);
      let froot = Ninep.Client.attach fc ~uname:"other" ~aname:"" in
      let wfid = Ninep.Client.walk_path fc froot [ "f" ] in
      ignore (Ninep.Client.open_ fc wfid Ninep.Fcall.Owrite);
      ignore (Ninep.Client.write fc wfid ~offset:0L "NEW contents");
      Ninep.Client.clunk fc wfid;
      Ninep.Client.clunk fc froot;
      (* the next walk carries the bumped qid.vers: blocks must drop *)
      Alcotest.(check int) "no invalidations yet" 0
        (Cfs.counter cache "invalidations");
      let fid2 = open_file c "/f" in
      Alcotest.(check bool) "invalidation counted" true
        (Cfs.counter cache "invalidations" > 0);
      Alcotest.(check string) "fresh contents" "NEW contents"
        (Ninep.Client.read_all c fid2);
      Ninep.Client.clunk c fid2)

(* the version wraps from 0xffffffff to 0: the cache's own write-through
   follows the server across the wrap, and a foreign write after it is
   still caught *)
let test_vers_wrap_invalidates () =
  with_cfs (fun _eng ram cache c fc ->
      Ninep.Ramfs.add_file ram "/f" "old contents";
      Ninep.Ramfs.set_vers ram "/f" 0xffffffff;
      let root = Ninep.Client.attach c ~uname:"philw" ~aname:"" in
      let fid = Ninep.Client.walk_path c root [ "f" ] in
      ignore (Ninep.Client.open_ c fid Ninep.Fcall.Ordwr);
      Alcotest.(check string) "cold read" "old contents"
        (Ninep.Client.read_all c fid);
      ignore (Ninep.Client.write c fid ~offset:0L "OWN");
      Ninep.Client.clunk c fid;
      Ninep.Client.clunk c root;
      let fid = open_file c "/f" in
      Alcotest.(check int) "the server's version wrapped" 0 (vers_of fc "f");
      Alcotest.(check int) "our own write is no foreign change" 0
        (Cfs.counter cache "invalidations");
      Ninep.Client.clunk c fid;
      let froot = Ninep.Client.attach fc ~uname:"other" ~aname:"" in
      let wfid = Ninep.Client.walk_path fc froot [ "f" ] in
      ignore (Ninep.Client.open_ fc wfid Ninep.Fcall.Owrite);
      ignore (Ninep.Client.write fc wfid ~offset:0L "NEW");
      Ninep.Client.clunk fc wfid;
      Ninep.Client.clunk fc froot;
      let fid = open_file c "/f" in
      Alcotest.(check int) "the foreign write invalidates" 1
        (Cfs.counter cache "invalidations");
      Alcotest.(check string) "fresh contents" "NEW contents"
        (Ninep.Client.read_all c fid);
      Ninep.Client.clunk c fid)

(* ---- write-through coherence ---- *)

let test_write_through () =
  with_cfs (fun _eng ram cache c fc ->
      Ninep.Ramfs.add_file ram "/f" "aaaaaaaaaa";
      let root = Ninep.Client.attach c ~uname:"philw" ~aname:"" in
      let fid = Ninep.Client.walk_path c root [ "f" ] in
      ignore (Ninep.Client.open_ c fid Ninep.Fcall.Ordwr);
      Alcotest.(check string) "cold read" "aaaaaaaaaa"
        (Ninep.Client.read_all c fid);
      ignore (Ninep.Client.write c fid ~offset:3L "BBB");
      Alcotest.(check bool) "write-through counted" true
        (Cfs.counter cache "write_through" > 0);
      (* read-your-writes, from cache *)
      let m0 = Cfs.counter cache "misses" in
      Alcotest.(check string) "read-your-writes" "aaaBBBaaaa"
        (read_at c fid 0 64);
      Alcotest.(check int) "served from cache" m0 (Cfs.counter cache "misses");
      (* the server really has the bytes: ask it directly *)
      let ffid = open_file fc "/f" in
      Alcotest.(check string) "server has the write" "aaaBBBaaaa"
        (Ninep.Client.read_all fc ffid);
      Ninep.Client.clunk fc ffid;
      Ninep.Client.clunk c fid;
      (* our own write must not read as a foreign change at re-open *)
      let fid2 = open_file c "/f" in
      Alcotest.(check int) "no spurious invalidation" 0
        (Cfs.counter cache "invalidations");
      Ninep.Client.clunk c fid2;
      Ninep.Client.clunk c root;
      ignore ram)

(* ---- LRU eviction at budget ---- *)

let test_lru_eviction () =
  let config = { Cfs.default_config with bsize = 512; budget = 2048 } in
  with_cfs ~config (fun _eng ram cache c _fc ->
      Ninep.Ramfs.add_file ram "/big" (String.make 8192 'z');
      let fid = open_file c "/big" in
      Alcotest.(check int) "full read ok" 8192
        (String.length (Ninep.Client.read_all c fid));
      Alcotest.(check bool) "evictions happened" true
        (Cfs.counter cache "evictions" > 0);
      Alcotest.(check bool) "budget respected" true
        (Cfs.cached_bytes cache <= 2048);
      Ninep.Client.clunk c fid)

let test_budget_smaller_than_block () =
  (* pathological: nothing fits, but reads must still be correct *)
  let config = { Cfs.default_config with bsize = 1024; budget = 100 } in
  with_cfs ~config (fun _eng ram cache c _fc ->
      let body = String.init 5000 (fun i -> Char.chr (33 + (i mod 90))) in
      Ninep.Ramfs.add_file ram "/f" body;
      let fid = open_file c "/f" in
      Alcotest.(check string) "read correct" body (Ninep.Client.read_all c fid);
      Alcotest.(check bool) "budget respected" true
        (Cfs.cached_bytes cache <= 100);
      Ninep.Client.clunk c fid)

(* ---- cached blocks are views of their fills ---- *)

(* distinct bytes at every offset, so a misplaced view shows *)
let body n = String.init n (fun i -> Char.chr (33 + (i * 7 mod 90)))

let counts cache =
  List.map (fun k -> (k, Cfs.counter cache k))
    [ "hits"; "misses"; "evictions"; "coalesced" ]

let check_counts what cache want =
  Alcotest.(check (list (pair string int))) what want (counts cache)

let test_view_eof_tail () =
  with_cfs (fun _eng ram cache c _fc ->
      let b = body 2500 in
      Ninep.Ramfs.add_file ram "/f" b;
      let fid = open_file c "/f" in
      (* one short fill: blocks 0 and 1 plus a 452-byte tail *)
      Alcotest.(check string) "cold read" b (read_at c fid 0 8192);
      Alcotest.(check int) "view bytes counted" 2500 (Cfs.cached_bytes cache);
      Alcotest.(check string) "tail from cache" (String.sub b 2048 452)
        (read_at c fid 2048 1000);
      Alcotest.(check string) "straddling read" (String.sub b 1000 1500)
        (read_at c fid 1000 4000);
      Alcotest.(check string) "end of file" "" (read_at c fid 2500 100);
      check_counts "one fill, the rest hits" cache
        [ ("hits", 3); ("misses", 1); ("evictions", 0); ("coalesced", 0) ];
      Ninep.Client.clunk c fid)

let test_view_empty_marker () =
  with_cfs (fun _eng ram cache c _fc ->
      let b = body 2048 in
      Ninep.Ramfs.add_file ram "/f" b;
      let fid = open_file c "/f" in
      (* an exact-multiple short fill leaves an empty end-of-file marker *)
      Alcotest.(check string) "cold read" b (read_at c fid 0 8192);
      Alcotest.(check int) "marker holds no bytes" 2048 (Cfs.cached_bytes cache);
      Alcotest.(check string) "at the marker" "" (read_at c fid 2048 512);
      Alcotest.(check string) "up to the marker" (String.sub b 1024 1024)
        (read_at c fid 1024 4096);
      check_counts "the marker answers end-of-file" cache
        [ ("hits", 2); ("misses", 1); ("evictions", 0); ("coalesced", 0) ];
      Ninep.Client.clunk c fid)

let test_view_write_through () =
  with_cfs (fun _eng ram cache c fc ->
      let b = body 3000 in
      Ninep.Ramfs.add_file ram "/f" b;
      let root = Ninep.Client.attach c ~uname:"philw" ~aname:"" in
      let fid = Ninep.Client.walk_path c root [ "f" ] in
      ignore (Ninep.Client.open_ c fid Ninep.Fcall.Ordwr);
      Alcotest.(check string) "cold read" b (read_at c fid 0 8192);
      (* inside block 1, across blocks 0 and 1, and past the tail *)
      let writes = [ (1500, "XYZ"); (1020, "abcdefgh"); (2998, "QQQQ") ] in
      List.iter
        (fun (off, d) ->
          ignore (Ninep.Client.write c fid ~offset:(Int64.of_int off) d))
        writes;
      let want =
        List.fold_left
          (fun acc (off, d) ->
            let n = max (String.length acc) (off + String.length d) in
            String.init n (fun i ->
                if i >= off && i < off + String.length d then d.[i - off]
                else acc.[i]))
          b writes
      in
      Alcotest.(check int) "bytes follow the writes" 3002
        (Cfs.cached_bytes cache);
      Alcotest.(check string) "re-read from cache" want (read_at c fid 0 8192);
      let ffid = open_file fc "/f" in
      Alcotest.(check string) "server agrees" want (Ninep.Client.read_all fc ffid);
      Ninep.Client.clunk fc ffid;
      check_counts "write-through fills nothing" cache
        [ ("hits", 1); ("misses", 1); ("evictions", 0); ("coalesced", 0) ];
      Ninep.Client.clunk c fid;
      Ninep.Client.clunk c root)

let test_view_lru_one_fill () =
  let config = { Cfs.default_config with bsize = 512; budget = 2048 } in
  with_cfs ~config (fun _eng ram cache c _fc ->
      let b = body 4096 in
      Ninep.Ramfs.add_file ram "/f" b;
      let fid = open_file c "/f" in
      (* one 8-block fill into a 4-block budget: its own first half goes *)
      Alcotest.(check string) "first block" (String.sub b 0 512)
        (read_at c fid 0 512);
      check_counts "four evicted" cache
        [ ("hits", 0); ("misses", 1); ("evictions", 4); ("coalesced", 0) ];
      Alcotest.(check int) "budget full" 2048 (Cfs.cached_bytes cache);
      Alcotest.(check string) "second half cached" (String.sub b 2048 2048)
        (read_at c fid 2048 2048);
      Alcotest.(check string) "evicted block refetched" (String.sub b 0 512)
        (read_at c fid 0 512);
      check_counts "one hit, one refetch, oldest survivor evicted" cache
        [ ("hits", 1); ("misses", 2); ("evictions", 5); ("coalesced", 0) ];
      Alcotest.(check string) "survivors intact" (String.sub b 2560 1536)
        (read_at c fid 2560 1536);
      Ninep.Client.clunk c fid)

let test_view_vers_invalidation () =
  with_cfs (fun _eng ram cache c fc ->
      Ninep.Ramfs.add_file ram "/f" (body 3000);
      let fid = open_file c "/f" in
      ignore (read_at c fid 0 8192);
      Ninep.Client.clunk c fid;
      let froot = Ninep.Client.attach fc ~uname:"other" ~aname:"" in
      let wfid = Ninep.Client.walk_path fc froot [ "f" ] in
      ignore (Ninep.Client.open_ fc wfid Ninep.Fcall.Owrite);
      ignore (Ninep.Client.write fc wfid ~offset:100L "foreign");
      Ninep.Client.clunk fc wfid;
      Ninep.Client.clunk fc froot;
      let fid2 = open_file c "/f" in
      Alcotest.(check int) "every view dropped" 0 (Cfs.cached_bytes cache);
      let want =
        let b = Bytes.of_string (body 3000) in
        Bytes.blit_string "foreign" 0 b 100 7;
        Bytes.to_string b
      in
      Alcotest.(check string) "fresh fill" want (read_at c fid2 0 8192);
      check_counts "refetched once" cache
        [ ("hits", 0); ("misses", 2); ("evictions", 0); ("coalesced", 0) ];
      Ninep.Client.clunk c fid2)

(* ---- the ctl/stats directory ---- *)

let test_ctl_fs () =
  with_cfs (fun eng ram cache c _fc ->
      Ninep.Ramfs.add_file ram "/f" (String.make 2000 'q');
      let fid = open_file c "/f" in
      ignore (Ninep.Client.read_all c fid);
      Ninep.Client.clunk c fid;
      (* mount the ctl directory over its own pipe *)
      let ct, st = Ninep.Transport.pipe eng in
      ignore (Ninep.Server.serve eng (Cfs.ctl_fs cache) st);
      let cc = Ninep.Client.make eng ct in
      Ninep.Client.session cc;
      let root = Ninep.Client.attach cc ~uname:"philw" ~aname:"" in
      let sfid = Ninep.Client.walk_path cc root [ "stats" ] in
      ignore (Ninep.Client.open_ cc sfid Ninep.Fcall.Oread);
      let stats = Ninep.Client.read_all cc sfid in
      Alcotest.(check string) "stats text matches" (Cfs.stats_text cache) stats;
      Alcotest.(check bool) "mentions misses" true
        (String.length stats > 0
        && Cfs.counter cache "misses" > 0);
      Ninep.Client.clunk cc sfid;
      (* flush through ctl *)
      Alcotest.(check bool) "cache occupied" true (Cfs.cached_bytes cache > 0);
      let cfid = Ninep.Client.walk_path cc root [ "ctl" ] in
      ignore (Ninep.Client.open_ cc cfid Ninep.Fcall.Owrite);
      ignore (Ninep.Client.write cc cfid ~offset:0L "flush");
      Alcotest.(check int) "cache emptied" 0 (Cfs.cached_bytes cache);
      (* readahead n *)
      ignore (Ninep.Client.write cc cfid ~offset:0L "readahead 4");
      Alcotest.(check int) "readahead set" 4 (Cfs.config cache).Cfs.readahead;
      (* bad command is an Rerror *)
      (try
         ignore (Ninep.Client.write cc cfid ~offset:0L "frobnicate");
         Alcotest.fail "bad ctl accepted"
       with Ninep.Client.Err _ -> ());
      Ninep.Client.clunk cc cfid;
      Ninep.Client.clunk cc root)

(* ---- ramfs qid.vers semantics the cache depends on ---- *)

let with_ramfs f =
  let eng = Sim.Engine.create () in
  let ram = Ninep.Ramfs.make ~name:"ram" () in
  let ct, st = Ninep.Transport.pipe eng in
  let _srv = Ninep.Server.serve eng (Ninep.Ramfs.fs ram) st in
  let finished = ref false in
  ignore
    (Sim.Proc.spawn eng ~name:"client" (fun () ->
         let c = Ninep.Client.make eng ct in
         Ninep.Client.session c;
         f ram c;
         finished := true));
  Sim.Engine.run eng;
  Alcotest.(check bool) "client body completed" true !finished

let test_ramfs_vers_write () =
  with_ramfs (fun ram c ->
      Ninep.Ramfs.add_file ram "/f" "x";
      let v0 = vers_of c "f" in
      let root = Ninep.Client.attach c ~uname:"u" ~aname:"" in
      let fid = Ninep.Client.walk_path c root [ "f" ] in
      ignore (Ninep.Client.open_ c fid Ninep.Fcall.Owrite);
      ignore (Ninep.Client.write c fid ~offset:0L "y");
      Ninep.Client.clunk c fid;
      Ninep.Client.clunk c root;
      Alcotest.(check bool) "write bumps vers" true (vers_of c "f" <> v0))

(* the version held in memory, as a local mount sees it *)
let local_vers ram path =
  let fs = Ninep.Ramfs.fs ram in
  let ok = function Ok v -> v | Error e -> Alcotest.fail e in
  let n = ok (fs.fs_walk (ok (fs.fs_attach ~uname:"u" ~aname:"")) path) in
  (fs.fs_qid n).Ninep.Fcall.qvers

let test_ramfs_vers_wrap () =
  with_ramfs (fun ram c ->
      Ninep.Ramfs.add_file ram "/f" "x";
      Ninep.Ramfs.set_vers ram "/f" 0xffffffff;
      Alcotest.(check int) "seeded" 0xffffffff (vers_of c "f");
      let root = Ninep.Client.attach c ~uname:"u" ~aname:"" in
      let fid = Ninep.Client.walk_path c root [ "f" ] in
      ignore (Ninep.Client.open_ c fid Ninep.Fcall.Owrite);
      ignore (Ninep.Client.write c fid ~offset:0L "y");
      Ninep.Client.clunk c fid;
      Ninep.Client.clunk c root;
      Alcotest.(check int) "on the wire" 0 (vers_of c "f");
      Alcotest.(check int) "in memory" 0 (local_vers ram "f"))

let test_ramfs_vers_wstat () =
  with_ramfs (fun ram c ->
      Ninep.Ramfs.add_file ram "/f" "x";
      let v0 = vers_of c "f" in
      let root = Ninep.Client.attach c ~uname:"u" ~aname:"" in
      let fid = Ninep.Client.walk_path c root [ "f" ] in
      let d = Ninep.Client.stat c fid in
      Ninep.Client.wstat c fid { d with Ninep.Fcall.d_mtime = 99l };
      Ninep.Client.clunk c fid;
      Ninep.Client.clunk c root;
      Alcotest.(check bool) "wstat bumps vers" true (vers_of c "f" <> v0))

let test_ramfs_vers_trunc () =
  with_ramfs (fun ram c ->
      Ninep.Ramfs.add_file ram "/f" "xxxx";
      let v0 = vers_of c "f" in
      let root = Ninep.Client.attach c ~uname:"u" ~aname:"" in
      let fid = Ninep.Client.walk_path c root [ "f" ] in
      ignore (Ninep.Client.open_ c fid ~trunc:true Ninep.Fcall.Owrite);
      Ninep.Client.clunk c fid;
      Ninep.Client.clunk c root;
      Alcotest.(check bool) "truncate bumps vers" true (vers_of c "f" <> v0))

(* ---- per-mount RPC counters in the mount driver ---- *)

let test_mnt_counters () =
  let eng = Sim.Engine.create () in
  let ram = Ninep.Ramfs.make ~name:"ram" () in
  Ninep.Ramfs.add_file ram "/f" "hello";
  let ct, st = Ninep.Transport.pipe eng in
  ignore (Ninep.Server.serve eng (Ninep.Ramfs.fs ram) st);
  let finished = ref false in
  ignore
    (Sim.Proc.spawn eng ~name:"client" (fun () ->
         let c = Ninep.Client.make eng ct in
         Ninep.Client.session c;
         let metrics = Obs.Metrics.create () in
         let mfs = Vfs.Mnt.fs c ~metrics ~name:"mnt:test" () in
         (* drive the mount driver through its server interface the way
            a channel would *)
         let n = Result.get_ok (mfs.Ninep.Server.fs_attach ~uname:"u" ~aname:"") in
         Alcotest.(check int) "Tattach counted" 1
           (Obs.Metrics.counter metrics "Tattach");
         let n = Result.get_ok (mfs.Ninep.Server.fs_walk n "f") in
         Result.get_ok (mfs.Ninep.Server.fs_open n Ninep.Fcall.Oread ~trunc:false);
         let data =
           Result.get_ok (mfs.Ninep.Server.fs_read n ~offset:0L ~count:64)
         in
         Alcotest.(check string) "read through mount" "hello" data;
         Alcotest.(check int) "Twalk counted" 1
           (Obs.Metrics.counter metrics "Twalk");
         Alcotest.(check int) "Tread counted" 1
           (Obs.Metrics.counter metrics "Tread");
         let text = Vfs.Mnt.stats_text metrics in
         Alcotest.(check bool) "stats text lists Tread" true
           (String.length text > 0);
         List.iter
           (fun name ->
             Alcotest.(check bool) (name ^ " line present") true
               (let re = name ^ " " in
                let rec find i =
                  i + String.length re <= String.length text
                  && (String.sub text i (String.length re) = re || find (i + 1))
                in
                find 0))
           Vfs.Mnt.rpc_names;
         finished := true));
  Sim.Engine.run eng;
  Alcotest.(check bool) "client body completed" true !finished

(* ---- determinism: same seed => identical BENCH_cfs.json ---- *)

(* ---- the upstream fence ---- *)

(* After [set_upstream] the new connection numbers its fids from
   scratch, so a fid minted on the old one names, by number, some
   unrelated file on the new one.  The old fid must fail, cost no
   upstream message, and leave the cache warm for a fresh walk. *)
let test_upstream_fence () =
  let eng = Sim.Engine.create () in
  let ram = Ninep.Ramfs.make ~name:"ram" () in
  Ninep.Ramfs.add_file ram "/f" "ffff";
  Ninep.Ramfs.add_file ram "/g" "gggg";
  (* an upstream connection whose outgoing messages are logged by name *)
  let upstream log =
    let ct, st = Ninep.Transport.pipe eng in
    ignore (Ninep.Server.serve eng (Ninep.Ramfs.fs ram) st);
    {
      ct with
      Ninep.Transport.t_send =
        (fun raw ->
          log := Ninep.Fcall.message_name (Ninep.Fcall.decode raw) :: !log;
          ct.Ninep.Transport.t_send raw);
    }
  in
  let old_sent = ref [] and new_sent = ref [] in
  let cache = Cfs.make eng ~upstream:(upstream old_sent) () in
  let finished = ref false in
  ignore
    (Sim.Proc.spawn eng ~name:"client" (fun () ->
         let c = Ninep.Client.make eng (Cfs.transport cache) in
         Ninep.Client.session c;
         let f = open_file c "/f" in
         Alcotest.(check string) "f" "ffff" (read_at c f 0 64);
         Cfs.set_upstream cache (upstream new_sent);
         old_sent := [];
         (* attach and walk on the new connection: its fids overlap the
            ones f was minted with *)
         let g = open_file c "/g" in
         Alcotest.(check string) "g" "gggg" (read_at c g 0 64);
         let misses = Cfs.counter cache "misses" in
         (match read_at c f 0 64 with
         | data -> Alcotest.failf "stale fid read %S" data
         | exception Ninep.Client.Err _ -> ());
         let sent = List.length !new_sent in
         Ninep.Client.clunk c f;
         Alcotest.(check int) "stale clunk sends nothing upstream" sent
           (List.length !new_sent);
         Alcotest.(check (list string)) "nothing on the old upstream" []
           !old_sent;
         let f = open_file c "/f" in
         Alcotest.(check string) "f again" "ffff" (read_at c f 0 64);
         Alcotest.(check int) "served warm" misses (Cfs.counter cache "misses");
         finished := true));
  Sim.Engine.run eng;
  Alcotest.(check bool) "client body completed" true !finished

(* a Tclwalk that misses at the cache takes an upstream clone for the
   walk and must give it back, as a failed Tclwalk leaves no new fid *)
let test_failed_clwalk_gives_clone_back () =
  let eng = Sim.Engine.create () in
  let ram = Ninep.Ramfs.make ~name:"ram" () in
  Ninep.Ramfs.add_file ram "/f" "ffff";
  let up_fs, held = Scenarios.counted (Ninep.Ramfs.fs ram) in
  let up_ct, up_st = Ninep.Transport.pipe eng in
  let _srv = Ninep.Server.serve eng up_fs up_st in
  let cache = Cfs.make eng ~upstream:up_ct () in
  let finished = ref false in
  ignore
    (Sim.Proc.spawn eng ~name:"client" (fun () ->
         let c = Ninep.Client.make eng (Cfs.transport cache) in
         Ninep.Client.session c;
         let root = Ninep.Client.attach c ~uname:"u" ~aname:"" in
         let before = !held in
         Alcotest.(check int) "the attach holds one upstream fid" 1 before;
         (match Ninep.Client.walk_path c root [ "nope" ] with
         | _ -> Alcotest.fail "walk to a missing name succeeded"
         | exception Ninep.Client.Err _ -> ());
         Alcotest.(check int) "upstream fids unchanged" before !held;
         Alcotest.(check int) "downstream: only the root" 1
           (Ninep.Client.open_fids c);
         finished := true));
  Sim.Engine.run eng;
  Alcotest.(check bool) "client body completed" true !finished

let test_bench_deterministic () =
  let a = Cfs_bench.run ~seed:9 () in
  let b = Cfs_bench.run ~seed:9 () in
  Alcotest.(check string) "byte-identical JSON" a.Bench.json b.Bench.json;
  let uncached, cached = a.Bench.value in
  Alcotest.(check bool) "cached strictly fewer round trips" true
    (cached.Cfs_bench.r_round_trips < uncached.Cfs_bench.r_round_trips);
  Alcotest.(check bool) "cached strictly faster" true
    (cached.Cfs_bench.r_elapsed < uncached.Cfs_bench.r_elapsed)

let () =
  Alcotest.run "cfs"
    [
      ( "cache",
        [
          Alcotest.test_case "hit/miss accounting" `Quick test_hit_miss;
          Alcotest.test_case "read-ahead collapses reads" `Quick
            test_readahead_collapses_reads;
          Alcotest.test_case "foreign write invalidates" `Quick
            test_foreign_write_invalidates;
          Alcotest.test_case "version wrap still invalidates" `Quick
            test_vers_wrap_invalidates;
          Alcotest.test_case "write-through coherence" `Quick
            test_write_through;
          Alcotest.test_case "LRU eviction at budget" `Quick
            test_lru_eviction;
          Alcotest.test_case "budget smaller than block" `Quick
            test_budget_smaller_than_block;
          Alcotest.test_case "ctl/stats directory" `Quick test_ctl_fs;
        ] );
      ( "views",
        [
          Alcotest.test_case "end-of-file tail" `Quick test_view_eof_tail;
          Alcotest.test_case "empty end-of-file marker" `Quick
            test_view_empty_marker;
          Alcotest.test_case "write-through into a view" `Quick
            test_view_write_through;
          Alcotest.test_case "LRU among one fill's blocks" `Quick
            test_view_lru_one_fill;
          Alcotest.test_case "qid.vers drops views" `Quick
            test_view_vers_invalidation;
        ] );
      ( "ramfs-vers",
        [
          Alcotest.test_case "write bumps" `Quick test_ramfs_vers_write;
          Alcotest.test_case "write wraps at 32 bits" `Quick test_ramfs_vers_wrap;
          Alcotest.test_case "wstat bumps" `Quick test_ramfs_vers_wstat;
          Alcotest.test_case "truncate bumps" `Quick test_ramfs_vers_trunc;
        ] );
      ( "mnt",
        [ Alcotest.test_case "per-mount RPC counters" `Quick test_mnt_counters ] );
      ( "upstream",
        [
          Alcotest.test_case "stale fids fenced" `Quick test_upstream_fence;
          Alcotest.test_case "failed Tclwalk gives its clone back" `Quick
            test_failed_clwalk_gives_clone_back;
        ] );
      ( "bench",
        [
          Alcotest.test_case "same seed, identical JSON" `Quick
            test_bench_deterministic;
        ] );
    ]
