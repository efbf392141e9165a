(* The tier-coherence battery for the stacked cfs hierarchy: a
   write-through at one terminal must be visible to a sibling terminal
   through the shared rack tier; eviction at the rack tier must refetch
   from the origin; concurrent same-block misses must coalesce onto one
   upstream read; and a small cold-boot storm must replay with exactly
   the per-tier round-trip counts the golden file records. *)

let split_path p =
  List.filter (fun s -> s <> "") (String.split_on_char '/' p)

(* origin ramfs <- rack cfs <- two terminal cfs, all in-process *)
let with_stack ?rack_config ?term_config f =
  let eng = Sim.Engine.create () in
  let ram = Ninep.Ramfs.make ~name:"origin" () in
  let up_ct, up_st = Ninep.Transport.pipe eng in
  ignore (Ninep.Server.serve eng (Ninep.Ramfs.fs ram) up_st);
  let rack = Cfs.make ?config:rack_config eng ~upstream:up_ct () in
  let ta = Cfs.make ?config:term_config eng ~upstream:(Cfs.connect rack) () in
  let tb = Cfs.make ?config:term_config eng ~upstream:(Cfs.connect rack) () in
  let finished = ref false in
  ignore
    (Sim.Proc.spawn eng ~name:"main" (fun () ->
         let ca = Ninep.Client.make eng (Cfs.transport ta) in
         Ninep.Client.session ca;
         let cb = Ninep.Client.make eng (Cfs.transport tb) in
         Ninep.Client.session cb;
         f eng ram rack ta tb ca cb;
         finished := true));
  Sim.Engine.run eng;
  Alcotest.(check bool) "test body completed" true !finished

let walk_open ?(mode = Ninep.Fcall.Oread) c path =
  let root = Ninep.Client.attach c ~uname:"fleet" ~aname:"" in
  let fid = Ninep.Client.walk_path c root (split_path path) in
  ignore (Ninep.Client.open_ c fid mode);
  Ninep.Client.clunk c root;
  fid

(* ---- write at A, read at B through the shared rack ---- *)

let test_tier_coherence () =
  let old_body = String.make 2000 'o' in
  with_stack (fun _eng ram rack _ta tb ca cb ->
      Ninep.Ramfs.add_file ram "/f" old_body;
      (* B warms both its own tier and the rack tier *)
      let fb = walk_open cb "/f" in
      Alcotest.(check string) "cold read at B" old_body
        (Ninep.Client.read_all cb fb);
      Ninep.Client.clunk cb fb;
      (* A writes through: terminal A -> rack -> origin *)
      let fa = walk_open ~mode:Ninep.Fcall.Ordwr ca "/f" in
      ignore (Ninep.Client.write ca fa ~offset:0L "NEW");
      Ninep.Client.clunk ca fa;
      let fresh = "NEW" ^ String.sub old_body 3 (String.length old_body - 3) in
      (* B's next walk carries the bumped qid.vers: its terminal tier
         invalidates and refetches through the rack, whose blocks the
         write-through patched in place *)
      let fb2 = walk_open cb "/f" in
      Alcotest.(check string) "B sees A's write" fresh
        (Ninep.Client.read_all cb fb2);
      Ninep.Client.clunk cb fb2;
      Alcotest.(check bool) "terminal B invalidated" true
        (Cfs.counter tb "invalidations" > 0);
      (* the rack never saw a foreign change: A's write went through it,
         was patched in place, and its version accounting kept up *)
      Alcotest.(check int) "rack tier patched, not invalidated" 0
        (Cfs.counter rack "invalidations"))

let test_tier_coherence_unwarmed () =
  (* same flow but B never read before the write: nothing stale exists,
     B's first read must still see the new bytes *)
  let old_body = String.make 1500 'q' in
  with_stack (fun _eng ram _rack _ta _tb ca cb ->
      Ninep.Ramfs.add_file ram "/g" old_body;
      let fa = walk_open ~mode:Ninep.Fcall.Ordwr ca "/g" in
      ignore (Ninep.Client.write ca fa ~offset:0L "fresh!");
      Ninep.Client.clunk ca fa;
      let want =
        "fresh!" ^ String.sub old_body 6 (String.length old_body - 6)
      in
      let fb = walk_open cb "/g" in
      Alcotest.(check string) "B reads through both tiers" want
        (Ninep.Client.read_all cb fb);
      Ninep.Client.clunk cb fb)

(* ---- rack-tier LRU eviction refetches from origin ---- *)

let test_rack_eviction_refetches () =
  (* rack budget of two blocks: filling it with /b evicts /a's blocks;
     re-reading /a must go back to the origin and return origin bytes *)
  let body_a = String.make 4096 'a' and body_b = String.make 4096 'b' in
  with_stack
    ~rack_config:{ Cfs.bsize = 1024; budget = 2048; readahead = 2 }
    (fun _eng ram rack _ta _tb ca cb ->
      Ninep.Ramfs.add_file ram "/a" body_a;
      Ninep.Ramfs.add_file ram "/b" body_b;
      let fa = walk_open ca "/a" in
      Alcotest.(check string) "first read of /a" body_a
        (Ninep.Client.read_all ca fa);
      Ninep.Client.clunk ca fa;
      let m0 = Cfs.counter rack "misses" in
      let fb = walk_open cb "/b" in
      Alcotest.(check string) "read of /b" body_b
        (Ninep.Client.read_all cb fb);
      Ninep.Client.clunk cb fb;
      Alcotest.(check bool) "rack evicted" true
        (Cfs.counter rack "evictions" > 0);
      (* /a's blocks are gone from the rack; the re-read must miss there
         and refetch origin bytes (terminal A's own cache would mask
         this, so read through terminal B, which never read /a) *)
      let fa2 = walk_open cb "/a" in
      Alcotest.(check string) "evicted /a refetched from origin" body_a
        (Ninep.Client.read_all cb fa2);
      Ninep.Client.clunk cb fa2;
      Alcotest.(check bool) "rack missed again" true
        (Cfs.counter rack "misses" > m0))

(* ---- single flight: concurrent same-block misses, one upstream read ---- *)

let test_single_flight () =
  let eng = Sim.Engine.create () in
  let ram = Ninep.Ramfs.make ~name:"origin" () in
  let body = String.make 8192 's' in
  Ninep.Ramfs.add_file ram "/f" body;
  let up_ct, up_st = Ninep.Transport.pipe eng in
  ignore (Ninep.Server.serve eng (Ninep.Ramfs.fs ram) up_st);
  let cache = Cfs.make eng ~upstream:up_ct () in
  let done_count = ref 0 in
  for k = 1 to 3 do
    ignore
      (Sim.Proc.spawn eng
         ~name:(Printf.sprintf "client%d" k)
         (fun () ->
           let c = Ninep.Client.make eng (Cfs.connect cache) in
           Ninep.Client.session c;
           let fid = walk_open c "/f" in
           Alcotest.(check string)
             (Printf.sprintf "client %d contents" k)
             body
             (Ninep.Client.read_all c fid);
           Ninep.Client.clunk c fid;
           incr done_count))
  done;
  Sim.Engine.run eng;
  Alcotest.(check int) "all clients finished" 3 !done_count;
  (* one widened fetch for the data, one end-of-file probe — however
     many clients raced; before single-flight this was per-client *)
  Alcotest.(check int) "two upstream reads total" 2
    (Cfs.counter cache "misses");
  Alcotest.(check bool) "concurrent misses coalesced" true
    (Cfs.counter cache "coalesced" >= 2)

(* ---- cold-boot replay: exact per-tier round-trip counts ---- *)

let read_golden path =
  let path = if Sys.file_exists path then path else "test/" ^ path in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_cold_boot_replay () =
  let r = Bootstorm_bench.run ~seed:7 ~racks:2 ~terminals:2 () in
  let t = r.Bench.value.Bootstorm_bench.tiered in
  let d = r.Bench.value.Bootstorm_bench.direct in
  let got =
    Printf.sprintf
      "booted %d of %d\n\
       tiered origin_round_trips %d\n\
       terminal tier: hits %d misses %d\n\
       rack tier: hits %d misses %d coalesced %d\n\
       direct origin_round_trips %d\n"
      t.Bootstorm_bench.b_booted t.Bootstorm_bench.b_total
      t.Bootstorm_bench.b_origin_rts t.Bootstorm_bench.b_term_hits
      t.Bootstorm_bench.b_term_misses t.Bootstorm_bench.b_rack_hits
      t.Bootstorm_bench.b_rack_misses t.Bootstorm_bench.b_rack_coalesced
      d.Bootstorm_bench.b_origin_rts
  in
  Alcotest.(check string) "per-tier round-trip counts"
    (read_golden "golden/fleet_replay.txt")
    got

let () =
  Alcotest.run "fleet"
    [
      ( "coherence",
        [
          Alcotest.test_case "write at A visible at B" `Quick
            test_tier_coherence;
          Alcotest.test_case "unwarmed sibling reads fresh" `Quick
            test_tier_coherence_unwarmed;
          Alcotest.test_case "rack eviction refetches origin" `Quick
            test_rack_eviction_refetches;
        ] );
      ( "single-flight",
        [ Alcotest.test_case "one upstream read per block" `Quick
            test_single_flight ] );
      ( "replay",
        [ Alcotest.test_case "cold-boot golden counts" `Quick
            test_cold_boot_replay ] );
    ]
