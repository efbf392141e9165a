(* Failure injection: connections dying under users, unreachable
   servers, total packet loss.  The organization must fail with errors,
   not hangs or crashes. *)

module F = Ninep.Fcall

let in_world ?seed ?(horizon = 240.0) ~from f =
  Util.in_world ?seed ~horizon ~from f

let test_dial_unreachable_host_times_out () =
  (* 135.104.9.77 does not exist: ARP can never resolve *)
  in_world ~from:"musca" (fun _w env ->
      match P9net.Dial.dial env "il!135.104.9.77!56" with
      | _ -> Alcotest.fail "dial should fail"
      | exception P9net.Dial.Dial_error _ -> ())

let test_dial_no_such_service () =
  in_world ~from:"musca" (fun _w env ->
      match P9net.Dial.dial env "il!135.104.9.31!29871" with
      | _ -> Alcotest.fail "dial should fail"
      | exception P9net.Dial.Dial_error _ -> ())

let test_total_loss_fails_cleanly () =
  let w = P9net.World.bell_labs () in
  Netsim.Fault.set_loss (Netsim.Ether.faults w.P9net.World.ether) 1.0;
  let musca = P9net.World.host w "musca" in
  let failed = ref false in
  ignore
    (P9net.Host.spawn musca "test" (fun env ->
         match P9net.Dial.dial env "il!135.104.9.31!56" with
         | _ -> ()
         | exception P9net.Dial.Dial_error _ -> failed := true));
  P9net.World.run ~until:120.0 w;
  Alcotest.(check bool) "clean failure on a dead wire" true !failed

let test_remote_hangup_fails_reads () =
  (* import a tree, then the serving connection dies: subsequent
     operations must raise, not block forever *)
  in_world ~from:"philw-gnot" (fun w env ->
      let helix = P9net.World.host w "helix" in
      Ninep.Ramfs.add_file helix.P9net.Host.root "/tmp/f" "data";
      P9net.Exportfs.import w.P9net.World.eng env ~host:"helix"
        ~remote_root:"/tmp" ~onto:"/n" ~flag:Vfs.Ns.Repl ();
      Alcotest.(check string) "works before" "data"
        (Vfs.Env.read_file env "/n/f");
      (* murder every exportfs instance on helix *)
      let eng = w.P9net.World.eng in
      ignore eng;
      (* kill the underlying conversation by hanging up every il conv
         on the terminal side: simulate the circuit dropping by closing
         the dk switch line loss... simplest reliable method: kill the
         serving processes on helix *)
      Netsim.Fault.set_loss (Netsim.Ether.faults w.P9net.World.ether) 1.0;
      Netsim.Fault.set_loss (Dk.Switch.faults w.P9net.World.dk) 1.0;
      (* the 9P RPC must eventually fail via the transport death timer *)
      match Vfs.Env.read_file env "/n/f" with
      | _ ->
        (* cached/ramfs path would be a bug: the read goes remote *)
        Alcotest.fail "read should fail once the network is dead"
      | exception Vfs.Chan.Error _ -> ())

let test_il_peer_silence_kills_connection () =
  (* a one-sided wire: after connect, all frames vanish; the death
     timer must close the conversation and writers must see Hungup *)
  let w = P9net.World.bell_labs () in
  let musca = P9net.World.host w "musca" in
  let helix = P9net.World.host w "helix" in
  let outcome = ref "none" in
  ignore
    (P9net.Host.spawn musca "test" (fun env ->
         let conn = P9net.Dial.dial env "il!135.104.9.31!56" in
         (* now the wire dies *)
         Netsim.Fault.set_loss (Netsim.Ether.faults w.P9net.World.ether) 1.0;
         (* keep writing until the connection declares death *)
         (try
            for _ = 1 to 10_000 do
              ignore (Vfs.Env.write env conn.P9net.Dial.data_fd "x");
              Sim.Time.sleep musca.P9net.Host.eng 0.5
            done;
            outcome := "survived"
          with Vfs.Chan.Error _ -> outcome := "hungup")))
  |> ignore;
  ignore helix;
  P9net.World.run ~until:240.0 w;
  Alcotest.(check string) "death timer fired" "hungup" !outcome

let test_9p_client_survives_bad_server_bytes () =
  (* garbage on the wire must not crash the demultiplexer *)
  let eng = Sim.Engine.create () in
  let ct, st = Ninep.Transport.pipe eng in
  let c = Ninep.Client.make eng ct in
  let got_err = ref false in
  ignore
    (Sim.Proc.spawn eng (fun () ->
         (* a server that answers garbage, then hangs up *)
         match st.Ninep.Transport.t_recv () with
         | Some _ ->
           st.Ninep.Transport.t_send "\xff\xff\xff\xffgarbage";
           st.Ninep.Transport.t_close ()
         | None -> ()));
  ignore
    (Sim.Proc.spawn eng (fun () ->
         try Ninep.Client.session c
         with Ninep.Client.Err _ -> got_err := true));
  Sim.Engine.run eng;
  Alcotest.(check bool) "rpc failed cleanly" true !got_err

let test_exportfs_survives_client_crash () =
  (* the terminal vanishes mid-session; helix's exportfs process must
     exit rather than leak *)
  in_world ~from:"philw-gnot" (fun w env ->
      let eng = w.P9net.World.eng in
      let conn = P9net.Dial.dial env "net!helix!exportfs" in
      let tr = P9net.Fdtrans.of_fd env conn.P9net.Dial.data_fd in
      let client = Ninep.Client.make eng tr in
      Ninep.Client.session client;
      let root = Ninep.Client.attach client ~uname:"philw" ~aname:"/" in
      ignore (Ninep.Client.stat client root);
      (* drop the connection without clunking *)
      P9net.Dial.hangup env conn;
      (* give the far side time to notice *)
      Sim.Time.sleep eng 5.0)

let test_stale_fd_after_close () =
  in_world ~from:"musca" (fun _w env ->
      let fd = Vfs.Env.open_ env "/net/cs" F.Ordwr in
      Vfs.Env.close env fd;
      match Vfs.Env.read env fd 10 with
      | _ -> Alcotest.fail "stale fd should fail"
      | exception Vfs.Chan.Error _ -> ())

let test_cs_write_garbage () =
  in_world ~from:"musca" (fun _w env ->
      let fd = Vfs.Env.open_ env "/net/cs" F.Ordwr in
      List.iter
        (fun q ->
          match Vfs.Env.write env fd q with
          | _ -> Alcotest.fail ("cs accepted garbage: " ^ q)
          | exception Vfs.Chan.Error _ -> ())
        [ ""; "!!"; "net!"; "nonet!host!svc"; "net!nonhost!svc" ];
      Vfs.Env.close env fd)

(* ---- transport recovery under injected fault schedules ----

   Direct IL/TCP stacks on a private segment, so tests can plant
   single-frame filters and read stack counters without a whole
   world. *)

let ip_pair ?(seed = 7) () =
  let eng = Sim.Engine.create ~seed () in
  let seg = Netsim.Ether.create ~name:"ether0" eng in
  let mk n addr =
    let nic =
      Netsim.Ether.attach seg
        (Netsim.Eaddr.of_string (Printf.sprintf "08006902%04x" n))
    in
    let port = Inet.Etherport.create eng nic in
    ( nic,
      Inet.Ip.create
        ~addr:(Inet.Ipaddr.of_string addr)
        ~mask:(Inet.Ipaddr.of_string "255.255.255.0")
        port )
  in
  let nic_a, ipa = mk 1 "10.0.0.1" in
  let nic_b, ipb = mk 2 "10.0.0.2" in
  (eng, seg, ipa, ipb, [ nic_a; nic_b ])

(* an ether frame carrying IL: IPv4 header (version byte 0x45, proto 40
   at offset 9) followed by the IL header, whose type byte sits at
   offset 24.  Type codes: Sync 0, Data 1, Ack 3. *)
let il_type pkt =
  if String.length pkt > 24 && pkt.[0] = '\x45' && Char.code pkt.[9] = 40
  then Some (Char.code pkt.[24])
  else None

let il_transfer ?(msgs = 1) ?(payload = fun i -> Printf.sprintf "msg-%03d" i)
    eng ila ilb =
  let got = ref [] in
  ignore
    (Sim.Proc.spawn eng ~name:"rx" (fun () ->
         let lis = Inet.Il.announce ilb ~port:7 in
         let conv = Inet.Il.listen lis in
         for _ = 1 to msgs do
           match Inet.Il.read_msg conv with
           | Some m -> got := m :: !got
           | None -> ()
         done));
  ignore
    (Sim.Proc.spawn eng ~name:"tx" (fun () ->
         let conv =
           Inet.Il.connect ila ~raddr:(Inet.Ipaddr.of_string "10.0.0.2")
             ~rport:7
         in
         for i = 1 to msgs do
           Inet.Il.write conv (payload i)
         done));
  got

(* the canonical schedule from DESIGN.md: 20% stationary burst loss,
   5% duplication, 5% reordering, 0.5 ms jitter *)
let canonical f =
  Netsim.Fault.set_burst f ~p_enter:0.05 ~p_exit:0.2 ~loss:1.0;
  Netsim.Fault.set_dup f 0.05;
  Netsim.Fault.set_reorder ~delay:2e-3 f 0.05;
  Netsim.Fault.set_jitter f 0.5e-3

let test_il_clean_run_takes_rtt_samples () =
  (* control for the Karn tests: an unfaulted transfer must sample *)
  let eng, _seg, ipa, ipb, _ = ip_pair () in
  let ila = Inet.Il.attach ipa and ilb = Inet.Il.attach ipb in
  let got = il_transfer ~msgs:5 eng ila ilb in
  Sim.Engine.run ~until:60.0 eng;
  Alcotest.(check int) "all delivered" 5 (List.length !got);
  let c = Inet.Il.counters ila in
  Alcotest.(check int) "no retransmits" 0 c.Inet.Il.retransmits;
  Alcotest.(check bool) "rtt was sampled" true (c.Inet.Il.rtt_samples >= 1)

let test_il_karn_retransmit_takes_no_sample () =
  (* kill exactly the first Data frame: recovery retransmits it, and
     Karn's rule says the retransmitted message must never contribute
     an rtt sample *)
  let eng, seg, ipa, ipb, _ = ip_pair () in
  let ila = Inet.Il.attach ipa and ilb = Inet.Il.attach ipb in
  let dropped = ref false in
  Netsim.Fault.set_filter (Netsim.Ether.faults seg) (fun pkt ->
      match il_type pkt with
      | Some 1 when not !dropped ->
        dropped := true;
        Some "filter"
      | _ -> None);
  let got = il_transfer eng ila ilb in
  Sim.Engine.run ~until:120.0 eng;
  Alcotest.(check bool) "data frame was dropped" true !dropped;
  Alcotest.(check int) "message recovered" 1 (List.length !got);
  let c = Inet.Il.counters ila in
  Alcotest.(check bool) "recovery retransmitted" true
    (c.Inet.Il.retransmits >= 1);
  Alcotest.(check int) "Karn: retransmitted message not sampled" 0
    c.Inet.Il.rtt_samples

let test_il_karn_query_timeout_takes_no_sample () =
  (* deliver the data but kill its ack: the sender must recover through
     the Query/State exchange (never blind retransmission), and the
     timed-out message must still not feed the inflated round trip into
     srtt — the query-timeout half of Karn's rule *)
  let eng, seg, ipa, ipb, _ = ip_pair () in
  let ila = Inet.Il.attach ipa and ilb = Inet.Il.attach ipb in
  let acks = ref 0 in
  Netsim.Fault.set_filter (Netsim.Ether.faults seg) (fun pkt ->
      match il_type pkt with
      | Some 3 ->
        incr acks;
        (* the first Ack completes the connect handshake; the second
           acknowledges the first data message *)
        if !acks = 2 then Some "filter" else None
      | _ -> None);
  let got = il_transfer eng ila ilb in
  Sim.Engine.run ~until:120.0 eng;
  Alcotest.(check int) "message delivered" 1 (List.length !got);
  let c = Inet.Il.counters ila in
  Alcotest.(check bool) "timeout sent a query" true
    (c.Inet.Il.queries_sent >= 1);
  Alcotest.(check int) "no blind retransmission" 0 c.Inet.Il.retransmits;
  Alcotest.(check int) "Karn: timed-out message not sampled" 0
    c.Inet.Il.rtt_samples

let test_il_dup_delivered_exactly_once () =
  (* duplicate every frame: each message must come out exactly once, in
     order, with the suppressed copies counted *)
  let eng, seg, ipa, ipb, _ = ip_pair () in
  let ila = Inet.Il.attach ipa and ilb = Inet.Il.attach ipb in
  Netsim.Fault.set_dup (Netsim.Ether.faults seg) 1.0;
  let n = 30 in
  let got = il_transfer ~msgs:n eng ila ilb in
  Sim.Engine.run ~until:120.0 eng;
  let expect = List.init n (fun i -> Printf.sprintf "msg-%03d" (i + 1)) in
  Alcotest.(check (list string)) "each message exactly once, in order"
    expect
    (List.rev !got);
  let cb = Inet.Il.counters ilb in
  Alcotest.(check bool) "duplicates suppressed and counted" true
    (cb.Inet.Il.dups_dropped >= n)

let test_il_reorder_still_in_order () =
  (* late-delivered frames are overtaken on the wire; the receive
     window must put the stream back together *)
  let eng, seg, ipa, ipb, nics = ip_pair () in
  let ila = Inet.Il.attach ipa and ilb = Inet.Il.attach ipb in
  Netsim.Fault.set_reorder ~delay:4e-3 (Netsim.Ether.faults seg) 0.3;
  let n = 40 in
  let got = il_transfer ~msgs:n eng ila ilb in
  Sim.Engine.run ~until:240.0 eng;
  let expect = List.init n (fun i -> Printf.sprintf "msg-%03d" (i + 1)) in
  Alcotest.(check (list string)) "delivered in order" expect (List.rev !got);
  let reorders =
    List.fold_left
      (fun acc nic ->
        acc + (Netsim.Ether.nic_stats nic).Netsim.Ether.reorders_injected)
      0 nics
  in
  Alcotest.(check bool) "reordering actually happened" true (reorders > 0)

let test_il_converges_under_burst () =
  let eng, seg, ipa, ipb, _ = ip_pair ~seed:11 () in
  let ila = Inet.Il.attach ipa and ilb = Inet.Il.attach ipb in
  canonical (Netsim.Ether.faults seg);
  let n = 60 in
  let got =
    il_transfer ~msgs:n ~payload:(fun _ -> String.make 500 'x') eng ila ilb
  in
  Sim.Engine.run ~until:600.0 eng;
  Alcotest.(check int) "all messages recovered" n (List.length !got);
  let c = Inet.Il.counters ila in
  Alcotest.(check bool) "loss forced recovery" true (c.Inet.Il.retransmits > 0)

let test_il_survives_link_flap () =
  (* 2 s dark out of every 5 for the first 30 s: retransmission must
     carry the stream across every down window *)
  let eng, seg, ipa, ipb, nics = ip_pair () in
  let ila = Inet.Il.attach ipa and ilb = Inet.Il.attach ipb in
  Netsim.Fault.flap (Netsim.Ether.faults seg) ~from_:0.0 ~until:30.0
    ~period:5.0 ~down:0.4;
  let n = 30 in
  let got = il_transfer ~msgs:n eng ila ilb in
  Sim.Engine.run ~until:300.0 eng;
  Alcotest.(check int) "all messages recovered" n (List.length !got);
  let drops =
    List.fold_left
      (fun acc nic ->
        acc + (Netsim.Ether.nic_stats nic).Netsim.Ether.drops_injected)
      0 nics
  in
  Alcotest.(check bool) "flap dropped frames" true (drops > 0)

let test_tcp_survives_burst () =
  let eng, seg, ipa, ipb, _ = ip_pair ~seed:11 () in
  let tcpa = Inet.Tcp.attach ipa and tcpb = Inet.Tcp.attach ipb in
  canonical (Netsim.Ether.faults seg);
  let msgs = 30 and size = 500 in
  let total = msgs * size in
  let got = ref 0 in
  ignore
    (Sim.Proc.spawn eng ~name:"rx" (fun () ->
         let lis = Inet.Tcp.announce tcpb ~port:7 in
         let conv = Inet.Tcp.listen lis in
         while !got < total do
           let s = Inet.Tcp.read conv 8192 in
           if s = "" then got := total else got := !got + String.length s
         done));
  ignore
    (Sim.Proc.spawn eng ~name:"tx" (fun () ->
         let conv =
           Inet.Tcp.connect tcpa ~raddr:(Inet.Ipaddr.of_string "10.0.0.2")
             ~rport:7
         in
         for _ = 1 to msgs do
           Inet.Tcp.write conv (String.make size 'y')
         done));
  Sim.Engine.run ~until:600.0 eng;
  Alcotest.(check int) "whole stream delivered" total !got;
  let c = Inet.Tcp.counters tcpa in
  Alcotest.(check bool) "loss forced recovery" true (c.Inet.Tcp.retransmits > 0)

let test_fault_schedule_determinism () =
  (* the whole transfer — faults, recovery, counters — must be
     byte-identical across same-seed runs *)
  let run_once () =
    let eng, seg, ipa, ipb, nics = ip_pair ~seed:3 () in
    let ila = Inet.Il.attach ipa and ilb = Inet.Il.attach ipb in
    canonical (Netsim.Ether.faults seg);
    let got =
      il_transfer ~msgs:40 ~payload:(fun _ -> String.make 300 'd') eng ila ilb
    in
    Sim.Engine.run ~until:600.0 eng;
    let c = Inet.Il.counters ila in
    let d, u, r =
      List.fold_left
        (fun (d, u, r) nic ->
          let s = Netsim.Ether.nic_stats nic in
          ( d + s.Netsim.Ether.drops_injected,
            u + s.Netsim.Ether.dups_injected,
            r + s.Netsim.Ether.reorders_injected ))
        (0, 0, 0) nics
    in
    Printf.sprintf "got=%d rexmit=%d queries=%d dups=%d inj=%d/%d/%d"
      (List.length !got) c.Inet.Il.retransmits c.Inet.Il.queries_sent
      (Inet.Il.counters ilb).Inet.Il.dups_dropped d u r
  in
  Alcotest.(check string) "same seed, same story" (run_once ()) (run_once ())

let test_9p_partition_then_redial () =
  (* a 9P mount over a partitioned link must fail with errors, never
     hang — and once the window passes, dialing again must work *)
  in_world ~from:"musca" ~horizon:900.0 (fun w env ->
      let eng = w.P9net.World.eng in
      let helix = P9net.World.host w "helix" in
      Ninep.Ramfs.add_file helix.P9net.Host.root "/tmp/f" "data";
      P9net.Exportfs.import eng env ~host:"helix" ~remote_root:"/tmp"
        ~onto:"/n" ~flag:Vfs.Ns.Repl ();
      Alcotest.(check string) "works before the partition" "data"
        (Vfs.Env.read_file env "/n/f");
      let now = Sim.Engine.now eng in
      Netsim.Fault.partition (P9net.World.ether_faults w) ~from_:now
        ~until:(now +. 60.);
      Netsim.Fault.partition (P9net.World.dk_faults w) ~from_:now
        ~until:(now +. 60.);
      (match Vfs.Env.read_file env "/n/f" with
      | _ -> Alcotest.fail "read must fail across the partition"
      | exception Vfs.Chan.Error _ -> ());
      (* the link is still down: keep dialing until the window passes *)
      let conn =
        P9net.Dial.redial env ~tries:20
          ~pause:(fun () -> Sim.Time.sleep eng 5.0)
          "net!helix!exportfs"
      in
      P9net.Dial.hangup env conn;
      (* a fresh import over the healed link works *)
      Ninep.Ramfs.mkdir (P9net.World.host w "musca").P9net.Host.root "/n2";
      P9net.Exportfs.import eng env ~host:"helix" ~remote_root:"/tmp"
        ~onto:"/n2" ~flag:Vfs.Ns.Repl ();
      Alcotest.(check string) "works after redial" "data"
        (Vfs.Env.read_file env "/n2/f"))

let () =
  Alcotest.run "faults"
    [
      ( "network",
        [
          Alcotest.test_case "unreachable host" `Quick
            test_dial_unreachable_host_times_out;
          Alcotest.test_case "no such service" `Quick
            test_dial_no_such_service;
          Alcotest.test_case "total loss" `Quick test_total_loss_fails_cleanly;
          Alcotest.test_case "il peer silence" `Quick
            test_il_peer_silence_kills_connection;
        ] );
      ( "transport",
        [
          Alcotest.test_case "il clean run samples rtt" `Quick
            test_il_clean_run_takes_rtt_samples;
          Alcotest.test_case "karn on retransmit" `Quick
            test_il_karn_retransmit_takes_no_sample;
          Alcotest.test_case "karn on query timeout" `Quick
            test_il_karn_query_timeout_takes_no_sample;
          Alcotest.test_case "il dup exactly once" `Quick
            test_il_dup_delivered_exactly_once;
          Alcotest.test_case "il reorder stays in order" `Quick
            test_il_reorder_still_in_order;
          Alcotest.test_case "il converges under burst" `Quick
            test_il_converges_under_burst;
          Alcotest.test_case "il survives link flap" `Quick
            test_il_survives_link_flap;
          Alcotest.test_case "tcp survives burst" `Quick
            test_tcp_survives_burst;
          Alcotest.test_case "same-seed determinism" `Quick
            test_fault_schedule_determinism;
        ] );
      ( "ninep",
        [
          Alcotest.test_case "garbage replies" `Quick
            test_9p_client_survives_bad_server_bytes;
          Alcotest.test_case "remote hangup" `Quick
            test_remote_hangup_fails_reads;
          Alcotest.test_case "client crash" `Quick
            test_exportfs_survives_client_crash;
          Alcotest.test_case "partition then redial" `Quick
            test_9p_partition_then_redial;
        ] );
      ( "api",
        [
          Alcotest.test_case "stale fd" `Quick test_stale_fd_after_close;
          Alcotest.test_case "cs garbage" `Quick test_cs_write_garbage;
        ] );
    ]
