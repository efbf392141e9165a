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

let vers_of c path =
  let root = Ninep.Client.attach c ~uname:"u" ~aname:"" in
  let q = Ninep.Client.walk c root path in
  Ninep.Client.clunk c root;
  q.Ninep.Fcall.qvers

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
          Alcotest.test_case "write-through coherence" `Quick
            test_write_through;
          Alcotest.test_case "LRU eviction at budget" `Quick
            test_lru_eviction;
          Alcotest.test_case "budget smaller than block" `Quick
            test_budget_smaller_than_block;
          Alcotest.test_case "ctl/stats directory" `Quick test_ctl_fs;
        ] );
      ( "ramfs-vers",
        [
          Alcotest.test_case "write bumps" `Quick test_ramfs_vers_write;
          Alcotest.test_case "wstat bumps" `Quick test_ramfs_vers_wstat;
          Alcotest.test_case "truncate bumps" `Quick test_ramfs_vers_trunc;
        ] );
      ( "mnt",
        [ Alcotest.test_case "per-mount RPC counters" `Quick test_mnt_counters ] );
      ( "bench",
        [
          Alcotest.test_case "same seed, identical JSON" `Quick
            test_bench_deterministic;
        ] );
    ]
