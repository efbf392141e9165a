(* Tests for the simulated physical media. *)

let ea = Netsim.Eaddr.of_string

let test_eaddr () =
  Alcotest.(check string) "normalizes case" "0800690222f0"
    (Netsim.Eaddr.to_string (ea "0800690222F0"));
  Alcotest.check_raises "length" (Invalid_argument "Eaddr.of_string: 0800")
    (fun () -> ignore (ea "0800"));
  Alcotest.(check string) "broadcast" "ffffffffffff"
    (Netsim.Eaddr.to_string Netsim.Eaddr.broadcast)

let test_eaddr_round_trip () =
  List.iter
    (fun text ->
      let a = ea text in
      Alcotest.(check string) ("renders " ^ text) (String.lowercase_ascii text)
        (Netsim.Eaddr.to_string a);
      Alcotest.(check bool) ("reparses " ^ text) true
        (ea (Netsim.Eaddr.to_string a) = a))
    [ "0800690222F0"; "aBcDeF012345"; "000000000001"; "FFFFFFFFFFFE" ];
  Alcotest.(check bool) "either case is one address" true
    (ea "FEEDDEFACED0" = ea "feeddefaced0");
  Alcotest.(check bool) "broadcast" true (ea "FfFfFfFfFfFf" = Netsim.Eaddr.broadcast);
  Alcotest.check_raises "not hex" (Invalid_argument "Eaddr.of_string: 0800690222fg")
    (fun () -> ignore (ea "0800690222fg"))

let mk_seg ?loss ?bandwidth_bps ?latency () =
  let eng = Sim.Engine.create () in
  let seg =
    Netsim.Ether.create ?loss ?bandwidth_bps ?latency ~name:"ether0" eng
  in
  (eng, seg)

let test_unicast_delivery () =
  let eng, seg = mk_seg () in
  let a = Netsim.Ether.attach seg (ea "0800690222f0") in
  let b = Netsim.Ether.attach seg (ea "0800690222f1") in
  let c = Netsim.Ether.attach seg (ea "0800690222f2") in
  let got_b = ref [] and got_c = ref [] in
  Netsim.Ether.set_rx b (fun f -> got_b := f.Netsim.Ether.payload :: !got_b);
  Netsim.Ether.set_rx c (fun f -> got_c := f.Netsim.Ether.payload :: !got_c);
  Netsim.Ether.transmit a
    {
      Netsim.Ether.src = Netsim.Ether.nic_addr a;
      dst = Netsim.Ether.nic_addr b;
      etype = 2048;
      payload = "hello";
    };
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "b got it" [ "hello" ] !got_b;
  Alcotest.(check (list string)) "c did not" [] !got_c

let test_broadcast_delivery () =
  let eng, seg = mk_seg () in
  let a = Netsim.Ether.attach seg (ea "0800690222f0") in
  let b = Netsim.Ether.attach seg (ea "0800690222f1") in
  let c = Netsim.Ether.attach seg (ea "0800690222f2") in
  let hits = ref 0 in
  Netsim.Ether.set_rx b (fun _ -> incr hits);
  Netsim.Ether.set_rx c (fun _ -> incr hits);
  Netsim.Ether.transmit a
    {
      Netsim.Ether.src = Netsim.Ether.nic_addr a;
      dst = Netsim.Eaddr.broadcast;
      etype = 2054;
      payload = "who-has";
    };
  Sim.Engine.run eng;
  Alcotest.(check int) "both got broadcast" 2 !hits

let test_promiscuous () =
  let eng, seg = mk_seg () in
  let a = Netsim.Ether.attach seg (ea "0800690222f0") in
  let b = Netsim.Ether.attach seg (ea "0800690222f1") in
  let snoop = Netsim.Ether.attach seg (ea "0800690222f2") in
  Netsim.Ether.set_promiscuous snoop true;
  let seen = ref 0 in
  Netsim.Ether.set_rx snoop (fun _ -> incr seen);
  Netsim.Ether.set_rx b (fun _ -> ());
  Netsim.Ether.transmit a
    {
      Netsim.Ether.src = Netsim.Ether.nic_addr a;
      dst = Netsim.Ether.nic_addr b;
      etype = 2048;
      payload = "secret";
    };
  Sim.Engine.run eng;
  Alcotest.(check int) "snooper saw unicast" 1 !seen

(* a promiscuous station turns the addressed delivery back into the
   scan: the addressee and the promiscuous station both get the frame,
   in station order (newest attached first) *)
let test_promiscuous_station_order () =
  let eng, seg = mk_seg () in
  let a = Netsim.Ether.attach seg (ea "0800690222f0") in
  let p = Netsim.Ether.attach seg (ea "0800690222f1") in
  let b = Netsim.Ether.attach seg (ea "0800690222f2") in
  let _c = Netsim.Ether.attach seg (ea "0800690222f3") in
  Netsim.Ether.set_promiscuous p true;
  let order = ref [] in
  Netsim.Ether.set_rx p (fun _ -> order := "p" :: !order);
  Netsim.Ether.set_rx b (fun _ -> order := "b" :: !order);
  Netsim.Ether.transmit a
    {
      Netsim.Ether.src = Netsim.Ether.nic_addr a;
      dst = Netsim.Ether.nic_addr b;
      etype = 2048;
      payload = "both";
    };
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "addressee, then the promiscuous station"
    [ "b"; "p" ] (List.rev !order);
  Netsim.Ether.set_promiscuous p false;
  order := [];
  Netsim.Ether.transmit a
    {
      Netsim.Ether.src = Netsim.Ether.nic_addr a;
      dst = Netsim.Ether.nic_addr b;
      etype = 2048;
      payload = "one";
    };
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "promiscuity off again" [ "b" ] (List.rev !order)

let test_absent_addressee () =
  let eng, seg = mk_seg () in
  let a = Netsim.Ether.attach seg (ea "0800690222f0") in
  let b = Netsim.Ether.attach seg (ea "0800690222f1") in
  Netsim.Ether.set_rx b (fun _ -> Alcotest.fail "b is not the addressee");
  Sim.Engine.run eng;
  let before = Sim.Engine.events eng in
  Netsim.Ether.transmit a
    {
      Netsim.Ether.src = Netsim.Ether.nic_addr a;
      dst = ea "0800690222ff";
      etype = 2048;
      payload = "nobody";
    };
  Alcotest.(check int) "nothing scheduled" 0 (Sim.Engine.pending eng);
  Sim.Engine.run eng;
  Alcotest.(check int) "no event ran" before (Sim.Engine.events eng);
  Alcotest.(check int) "still sent" 1
    (Netsim.Ether.nic_stats a).Netsim.Ether.out_packets

let test_no_self_delivery () =
  let eng, seg = mk_seg () in
  let a = Netsim.Ether.attach seg (ea "0800690222f0") in
  let self_hits = ref 0 in
  Netsim.Ether.set_rx a (fun _ -> incr self_hits);
  Netsim.Ether.transmit a
    {
      Netsim.Ether.src = Netsim.Ether.nic_addr a;
      dst = Netsim.Eaddr.broadcast;
      etype = 2048;
      payload = "echo?";
    };
  Sim.Engine.run eng;
  Alcotest.(check int) "no loopback from the wire" 0 !self_hits

let test_duplicate_attach_rejected () =
  let _eng, seg = mk_seg () in
  let _a = Netsim.Ether.attach seg (ea "0800690222f0") in
  Alcotest.(check bool) "dup attach raises" true
    (try
       ignore (Netsim.Ether.attach seg (ea "0800690222f0"));
       false
     with Invalid_argument _ -> true)

let test_wire_timing () =
  (* 10 Mb/s: a 1000-byte payload (+18 header) takes 814.4 us + 50 us
     propagation *)
  let eng, seg = mk_seg ~bandwidth_bps:10e6 ~latency:50e-6 () in
  let a = Netsim.Ether.attach seg (ea "0800690222f0") in
  let b = Netsim.Ether.attach seg (ea "0800690222f1") in
  let arrival = ref 0. in
  Netsim.Ether.set_rx b (fun _ -> arrival := Sim.Engine.now eng);
  Netsim.Ether.transmit a
    {
      Netsim.Ether.src = Netsim.Ether.nic_addr a;
      dst = Netsim.Ether.nic_addr b;
      etype = 2048;
      payload = String.make 1000 'x';
    };
  Sim.Engine.run eng;
  Alcotest.(check (float 1e-9)) "arrival time"
    ((1018. *. 8. /. 10e6) +. 50e-6)
    !arrival

let test_medium_serializes () =
  (* two back-to-back frames share the wire; the second arrives one
     transmission time after the first *)
  let eng, seg = mk_seg ~bandwidth_bps:10e6 ~latency:0. () in
  let a = Netsim.Ether.attach seg (ea "0800690222f0") in
  let b = Netsim.Ether.attach seg (ea "0800690222f1") in
  let times = ref [] in
  Netsim.Ether.set_rx b (fun _ -> times := Sim.Engine.now eng :: !times);
  let frame =
    {
      Netsim.Ether.src = Netsim.Ether.nic_addr a;
      dst = Netsim.Ether.nic_addr b;
      etype = 2048;
      payload = String.make 982 'x';  (* 1000 bytes on the wire *)
    }
  in
  Netsim.Ether.transmit a frame;
  Netsim.Ether.transmit a frame;
  Sim.Engine.run eng;
  match List.rev !times with
  | [ t1; t2 ] ->
    Alcotest.(check (float 1e-9)) "second delayed by one tx time"
      (t1 +. (8000. /. 10e6))
      t2
  | _ -> Alcotest.fail "expected two deliveries"

let test_loss_is_counted () =
  let eng, seg = mk_seg ~loss:1.0 () in
  let a = Netsim.Ether.attach seg (ea "0800690222f0") in
  let b = Netsim.Ether.attach seg (ea "0800690222f1") in
  let got = ref 0 in
  Netsim.Ether.set_rx b (fun _ -> incr got);
  for _ = 1 to 5 do
    Netsim.Ether.transmit a
      {
        Netsim.Ether.src = Netsim.Ether.nic_addr a;
        dst = Netsim.Ether.nic_addr b;
        etype = 2048;
        payload = "doomed";
      }
  done;
  Sim.Engine.run eng;
  Alcotest.(check int) "all lost" 0 !got;
  Alcotest.(check int) "crc errors counted" 5
    (Netsim.Ether.nic_stats b).Netsim.Ether.crc_errors

let test_stats_counting () =
  let eng, seg = mk_seg () in
  let a = Netsim.Ether.attach seg (ea "0800690222f0") in
  let b = Netsim.Ether.attach seg (ea "0800690222f1") in
  Netsim.Ether.set_rx b (fun _ -> ());
  Netsim.Ether.transmit a
    {
      Netsim.Ether.src = Netsim.Ether.nic_addr a;
      dst = Netsim.Ether.nic_addr b;
      etype = 2048;
      payload = "12345";
    };
  Sim.Engine.run eng;
  let sa = Netsim.Ether.nic_stats a and sb = Netsim.Ether.nic_stats b in
  Alcotest.(check int) "a out" 1 sa.Netsim.Ether.out_packets;
  Alcotest.(check int) "a out bytes" 5 sa.Netsim.Ether.out_bytes;
  Alcotest.(check int) "b in" 1 sb.Netsim.Ether.in_packets;
  Alcotest.(check int) "b in bytes" 5 sb.Netsim.Ether.in_bytes

(* ---- the fault-injection layer ---- *)

let frame_to a b payload =
  {
    Netsim.Ether.src = Netsim.Ether.nic_addr a;
    dst = Netsim.Ether.nic_addr b;
    etype = 2048;
    payload;
  }

let test_set_loss_alias () =
  (* loss set on the segment fault schedule routes through the choke
     point (crc_errors for legacy consumers, drops_injected for
     attribution) *)
  let eng, seg = mk_seg () in
  let a = Netsim.Ether.attach seg (ea "0800690222f0") in
  let b = Netsim.Ether.attach seg (ea "0800690222f1") in
  let got = ref 0 in
  Netsim.Ether.set_rx b (fun _ -> incr got);
  Netsim.Fault.set_loss (Netsim.Ether.faults seg) 1.0;
  Netsim.Ether.transmit a (frame_to a b "doomed");
  Sim.Engine.run eng;
  let sb = Netsim.Ether.nic_stats b in
  Alcotest.(check int) "lost" 0 !got;
  Alcotest.(check int) "crc_errors (legacy)" 1 sb.Netsim.Ether.crc_errors;
  Alcotest.(check int) "drops_injected" 1
    sb.Netsim.Ether.injected.Netsim.Fault.drops;
  Netsim.Fault.set_loss (Netsim.Ether.faults seg) 0.0;
  Netsim.Ether.transmit a (frame_to a b "fine");
  Sim.Engine.run eng;
  Alcotest.(check int) "delivered after clearing" 1 !got

let test_dup_delivers_twice () =
  let eng, seg = mk_seg () in
  let a = Netsim.Ether.attach seg (ea "0800690222f0") in
  let b = Netsim.Ether.attach seg (ea "0800690222f1") in
  Netsim.Fault.set_dup (Netsim.Ether.faults seg) 1.0;
  let got = ref [] in
  Netsim.Ether.set_rx b (fun f -> got := f.Netsim.Ether.payload :: !got);
  Netsim.Ether.transmit a (frame_to a b "twice");
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "copy trails the original"
    [ "twice"; "twice" ] !got;
  Alcotest.(check int) "dups_injected" 1
    (Netsim.Ether.nic_stats b).Netsim.Ether.injected.Netsim.Fault.dups

let test_reorder_swaps_frames () =
  (* frame 1 is marked for reordering (2 ms late), frame 2 is not:
     frame 2 must overtake it.  No randomness in the outcome: the
     probability is 1.0 for the first frame and 0 for the second. *)
  let eng, seg = mk_seg () in
  let a = Netsim.Ether.attach seg (ea "0800690222f0") in
  let b = Netsim.Ether.attach seg (ea "0800690222f1") in
  let f = Netsim.Ether.faults seg in
  let got = ref [] in
  Netsim.Ether.set_rx b (fun fr -> got := fr.Netsim.Ether.payload :: !got);
  Netsim.Fault.set_reorder f ~delay:2e-3 1.0;
  Netsim.Ether.transmit a (frame_to a b "first");
  Netsim.Fault.set_reorder f 0.0;
  Netsim.Ether.transmit a (frame_to a b "second");
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "successor overtook"
    [ "second"; "first" ] (List.rev !got);
  Alcotest.(check int) "reorders_injected" 1
    (Netsim.Ether.nic_stats b).Netsim.Ether.injected.Netsim.Fault.reorders

let test_partition_window_and_heal () =
  let eng, seg = mk_seg () in
  let a = Netsim.Ether.attach seg (ea "0800690222f0") in
  let b = Netsim.Ether.attach seg (ea "0800690222f1") in
  let tr = Obs.Trace.create () in
  Sim.Engine.attach_obs eng tr;
  let f = Netsim.Ether.faults seg in
  Netsim.Fault.partition f ~from_:0.0 ~until:1.0;
  Alcotest.(check bool) "partitioned now" true (Netsim.Fault.partitioned f 0.5);
  Alcotest.(check bool) "not later" false (Netsim.Fault.partitioned f 1.5);
  let got = ref [] in
  Netsim.Ether.set_rx b (fun fr -> got := fr.Netsim.Ether.payload :: !got);
  Netsim.Ether.transmit a (frame_to a b "inside");
  Sim.Engine.at eng 2.0 (fun () ->
      Netsim.Ether.transmit a (frame_to a b "after"));
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "only the post-heal frame" [ "after" ] !got;
  Alcotest.(check int) "drops_injected" 1
    (Netsim.Ether.nic_stats b).Netsim.Ether.injected.Netsim.Fault.drops;
  Alcotest.(check int) "obs fault.partition" 1
    (Obs.Metrics.counter (Obs.Trace.metrics tr) "fault.partition");
  (* partitions are not CRC noise *)
  Alcotest.(check int) "no crc_errors" 0
    (Netsim.Ether.nic_stats b).Netsim.Ether.crc_errors

let test_per_station_fault () =
  (* partitioning one station models unplugging its transceiver: the
     other station keeps receiving broadcasts *)
  let eng, seg = mk_seg () in
  let a = Netsim.Ether.attach seg (ea "0800690222f0") in
  let b = Netsim.Ether.attach seg (ea "0800690222f1") in
  let c = Netsim.Ether.attach seg (ea "0800690222f2") in
  Netsim.Fault.partition (Netsim.Ether.nic_faults b) ~from_:0.0
    ~until:10.0;
  let got_b = ref 0 and got_c = ref 0 in
  Netsim.Ether.set_rx b (fun _ -> incr got_b);
  Netsim.Ether.set_rx c (fun _ -> incr got_c);
  Netsim.Ether.transmit a
    {
      Netsim.Ether.src = Netsim.Ether.nic_addr a;
      dst = Netsim.Eaddr.broadcast;
      etype = 2048;
      payload = "all";
    };
  Sim.Engine.run eng;
  Alcotest.(check int) "b unplugged" 0 !got_b;
  Alcotest.(check int) "c still attached" 1 !got_c

let test_filter_drops_chosen_frame () =
  let eng, seg = mk_seg () in
  let a = Netsim.Ether.attach seg (ea "0800690222f0") in
  let b = Netsim.Ether.attach seg (ea "0800690222f1") in
  Netsim.Fault.set_filter (Netsim.Ether.faults seg) (fun payload ->
      if payload = "kill-me" then Some "filter" else None);
  let got = ref [] in
  Netsim.Ether.set_rx b (fun fr -> got := fr.Netsim.Ether.payload :: !got);
  Netsim.Ether.transmit a (frame_to a b "kill-me");
  Netsim.Ether.transmit a (frame_to a b "keep-me");
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "filtered" [ "keep-me" ] !got

let test_gilbert_burst_ratio () =
  (* the canonical 20% schedule: stationary burst occupancy
     0.05/(0.05+0.2) = 20%, burst_loss = 1.0.  Over 4000 frames the
     realized loss must be in the right neighbourhood. *)
  let eng, seg = mk_seg () in
  let a = Netsim.Ether.attach seg (ea "0800690222f0") in
  let b = Netsim.Ether.attach seg (ea "0800690222f1") in
  Netsim.Fault.set_burst (Netsim.Ether.faults seg) ~p_enter:0.05
    ~p_exit:0.2 ~loss:1.0;
  let got = ref 0 in
  Netsim.Ether.set_rx b (fun _ -> incr got);
  let n = 4000 in
  for _ = 1 to n do
    Netsim.Ether.transmit a (frame_to a b "x")
  done;
  Sim.Engine.run eng;
  let loss = float_of_int (n - !got) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "loss %.3f within [0.10, 0.30]" loss)
    true
    (loss > 0.10 && loss < 0.30);
  (* bursty, not uniform: drops must come in runs, so the number of
     distinct loss events per dropped frame is well under 1 *)
  Alcotest.(check int) "every drop attributed" (n - !got)
    (Netsim.Ether.nic_stats b).Netsim.Ether.injected.Netsim.Fault.drops

let test_fault_determinism () =
  (* same seed, same schedule => byte-identical delivery pattern *)
  let run_once () =
    let eng = Sim.Engine.create ~seed:42 () in
    let seg = Netsim.Ether.create ~name:"ether0" eng in
    let a = Netsim.Ether.attach seg (ea "0800690222f0") in
    let b = Netsim.Ether.attach seg (ea "0800690222f1") in
    let f = Netsim.Ether.faults seg in
    Netsim.Fault.set_burst f ~p_enter:0.05 ~p_exit:0.2 ~loss:1.0;
    Netsim.Fault.set_dup f 0.05;
    Netsim.Fault.set_reorder f ~delay:2e-3 0.05;
    Netsim.Fault.set_jitter f 0.5e-3;
    let log = Buffer.create 256 in
    Netsim.Ether.set_rx b (fun fr ->
        Printf.bprintf log "%.9f %s\n" (Sim.Engine.now eng)
          fr.Netsim.Ether.payload);
    for i = 1 to 500 do
      Netsim.Ether.transmit a (frame_to a b (Printf.sprintf "m%d" i))
    done;
    Sim.Engine.run eng;
    Buffer.contents log
  in
  let r1 = run_once () and r2 = run_once () in
  Alcotest.(check bool) "deliveries not empty" true (String.length r1 > 0);
  Alcotest.(check string) "same seed, same trace" r1 r2

let test_empty_schedule_draws_nothing () =
  (* an inactive schedule must not consume randomness: the RNG stream
     after N transmissions equals that of an untouched engine *)
  let drain eng =
    let rng = Sim.Engine.random eng in
    List.init 8 (fun _ -> Random.State.bits rng)
  in
  let eng1 = Sim.Engine.create ~seed:7 () in
  let seg = Netsim.Ether.create ~name:"ether0" eng1 in
  let a = Netsim.Ether.attach seg (ea "0800690222f0") in
  let b = Netsim.Ether.attach seg (ea "0800690222f1") in
  Netsim.Ether.set_rx b (fun _ -> ());
  for _ = 1 to 50 do
    Netsim.Ether.transmit a (frame_to a b "clean")
  done;
  Sim.Engine.run eng1;
  let eng2 = Sim.Engine.create ~seed:7 () in
  Alcotest.(check (list int)) "rng stream untouched" (drain eng2) (drain eng1)

let test_flap_windows () =
  let f = Netsim.Fault.create () in
  (* dark for the first 0.25 of every 1 s between t=1 and t=3 *)
  Netsim.Fault.flap f ~from_:1.0 ~until:3.0 ~period:1.0 ~down:0.25;
  List.iter
    (fun (t, expect) ->
      Alcotest.(check bool)
        (Printf.sprintf "t=%.2f" t)
        expect
        (Netsim.Fault.partitioned f t))
    [
      (0.5, false);
      (1.1, true);
      (1.5, false);
      (2.1, true);
      (2.9, false);
      (3.5, false);
    ];
  Netsim.Fault.heal f;
  Alcotest.(check bool) "healed" false (Netsim.Fault.partitioned f 1.1)

let test_fiber_roundtrip () =
  let eng = Sim.Engine.create () in
  let a, b =
    Netsim.Link.create_pair ~rate:125e6 ~byte_bits:8 ~latency:10e-6 eng
  in
  let got = ref [] in
  Netsim.Link.set_rx b (fun m -> got := m :: !got);
  Netsim.Link.set_rx a (fun m -> Netsim.Link.send a ("echo:" ^ m));
  Netsim.Link.send a "one";
  Netsim.Link.send a "two";
  Sim.Engine.run eng;
  Alcotest.(check (list string)) "in order" [ "one"; "two" ] (List.rev !got)

let test_fiber_timing () =
  let eng = Sim.Engine.create () in
  let a, b =
    Netsim.Link.create_pair ~rate:125e6 ~byte_bits:8 ~latency:10e-6 eng
  in
  let at = ref 0. in
  Netsim.Link.set_rx b (fun _ -> at := Sim.Engine.now eng);
  Netsim.Link.send a (String.make 16384 'x');
  Sim.Engine.run eng;
  Alcotest.(check (float 1e-9)) "16k at 125Mb/s + latency"
    ((16384. *. 8. /. 125e6) +. 10e-6)
    !at

let test_serial_baud () =
  let eng = Sim.Engine.create () in
  let a, b =
    Netsim.Link.create_pair ~rate:9600. ~byte_bits:10 ~latency:0. eng
  in
  let at = ref 0. in
  Netsim.Link.set_rx b (fun _ -> at := Sim.Engine.now eng);
  Netsim.Link.send a (String.make 96 'x');
  Sim.Engine.run eng;
  (* 96 bytes * 10 bits / 9600 baud = 0.1 s *)
  Alcotest.(check (float 1e-9)) "9600 baud" 0.1 !at;
  (* reclock to 1200 baud, like echo b1200 > /dev/eia1ctl *)
  Netsim.Link.set_rate a 1200.;
  Alcotest.(check (float 0.)) "peer reclocked too" 1200. (Netsim.Link.rate b)

let () =
  Alcotest.run "netsim"
    [
      ( "eaddr",
        [
          Alcotest.test_case "parse" `Quick test_eaddr;
          Alcotest.test_case "round trip" `Quick test_eaddr_round_trip;
        ] );
      ( "ether",
        [
          Alcotest.test_case "unicast" `Quick test_unicast_delivery;
          Alcotest.test_case "broadcast" `Quick test_broadcast_delivery;
          Alcotest.test_case "promiscuous" `Quick test_promiscuous;
          Alcotest.test_case "promiscuous station order" `Quick
            test_promiscuous_station_order;
          Alcotest.test_case "absent addressee" `Quick test_absent_addressee;
          Alcotest.test_case "no self delivery" `Quick test_no_self_delivery;
          Alcotest.test_case "dup attach" `Quick
            test_duplicate_attach_rejected;
          Alcotest.test_case "wire timing" `Quick test_wire_timing;
          Alcotest.test_case "medium serializes" `Quick
            test_medium_serializes;
          Alcotest.test_case "loss counted" `Quick test_loss_is_counted;
          Alcotest.test_case "stats" `Quick test_stats_counting;
        ] );
      ( "fault",
        [
          Alcotest.test_case "set_loss alias" `Quick test_set_loss_alias;
          Alcotest.test_case "dup delivers twice" `Quick
            test_dup_delivers_twice;
          Alcotest.test_case "reorder swaps" `Quick test_reorder_swaps_frames;
          Alcotest.test_case "partition + heal" `Quick
            test_partition_window_and_heal;
          Alcotest.test_case "per-station" `Quick test_per_station_fault;
          Alcotest.test_case "filter" `Quick test_filter_drops_chosen_frame;
          Alcotest.test_case "gilbert ratio" `Quick test_gilbert_burst_ratio;
          Alcotest.test_case "determinism" `Quick test_fault_determinism;
          Alcotest.test_case "no spurious draws" `Quick
            test_empty_schedule_draws_nothing;
          Alcotest.test_case "flap windows" `Quick test_flap_windows;
        ] );
      ( "fiber",
        [
          Alcotest.test_case "roundtrip" `Quick test_fiber_roundtrip;
          Alcotest.test_case "timing" `Quick test_fiber_timing;
        ] );
      ("serial", [ Alcotest.test_case "baud" `Quick test_serial_baud ]);
    ]
