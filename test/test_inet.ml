(* Tests for the IP suite: addresses, checksums, ARP, fragmentation,
   IL, TCP, UDP. *)

let ea = Netsim.Eaddr.of_string
let ip = Inet.Ipaddr.of_string

(* ---- a two-host world on one Ethernet ---- *)

type host = {
  ipstack : Inet.Ip.stack;
  il : Inet.Il.stack;
  tcp : Inet.Tcp.stack;
  udp : Inet.Udp.stack;
}

let make_world ?loss ?(seed = 9) () =
  let eng = Sim.Engine.create ~seed () in
  let seg = Netsim.Ether.create ?loss ~name:"ether0" eng in
  let mask = ip "255.255.255.0" in
  let mk n addr =
    let nic = Netsim.Ether.attach seg (ea (Printf.sprintf "08006902%04x" n)) in
    let port = Inet.Etherport.create eng nic in
    let ipstack = Inet.Ip.create ~addr:(ip addr) ~mask port in
    {
      ipstack;
      il = Inet.Il.attach ipstack;
      tcp = Inet.Tcp.attach ipstack;
      udp = Inet.Udp.attach ipstack;
    }
  in
  let h1 = mk 1 "135.104.9.31" in
  let h2 = mk 2 "135.104.9.32" in
  (eng, seg, h1, h2)

let spawn = Sim.Proc.spawn

(* ---- Ipaddr ---- *)

let test_ipaddr_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) s s (Inet.Ipaddr.to_string (ip s)))
    [ "0.0.0.0"; "135.104.9.31"; "255.255.255.255"; "1.2.3.4" ]

let test_ipaddr_invalid () =
  List.iter
    (fun s ->
      Alcotest.(check bool) s true (Inet.Ipaddr.of_string_opt s = None))
    [ ""; "1.2.3"; "1.2.3.4.5"; "256.1.1.1"; "a.b.c.d"; "1..2.3" ]

let test_subnet () =
  Alcotest.(check bool) "same subnet" true
    (Inet.Ipaddr.in_subnet (ip "135.104.9.31") ~net:(ip "135.104.9.0")
       ~mask:(ip "255.255.255.0"));
  Alcotest.(check bool) "different subnet" false
    (Inet.Ipaddr.in_subnet (ip "135.104.52.1") ~net:(ip "135.104.9.0")
       ~mask:(ip "255.255.255.0"))

let test_class_mask () =
  Alcotest.(check string) "class A" "255.0.0.0"
    (Inet.Ipaddr.to_string (Inet.Ipaddr.class_mask (ip "10.1.2.3")));
  Alcotest.(check string) "class B" "255.255.0.0"
    (Inet.Ipaddr.to_string (Inet.Ipaddr.class_mask (ip "135.104.9.31")));
  Alcotest.(check string) "class C" "255.255.255.0"
    (Inet.Ipaddr.to_string (Inet.Ipaddr.class_mask (ip "192.168.1.1")))

(* ---- checksum ---- *)

let prop_checksum_validates =
  QCheck.Test.make ~name:"checksum self-validates" ~count:200
    QCheck.(string_of_size QCheck.Gen.(2 -- 200))
    (fun s ->
      (* emulate a packet with a checksum field at offset 0 *)
      let b = Bytes.of_string ("\000\000" ^ s) in
      let sum = Inet.Chksum.checksum (Bytes.to_string b) in
      Bytes.set b 0 (Char.chr (sum lsr 8));
      Bytes.set b 1 (Char.chr (sum land 0xff));
      Inet.Chksum.valid (Bytes.to_string b))

let prop_checksum_detects_flip =
  QCheck.Test.make ~name:"checksum detects a bit flip" ~count:200
    QCheck.(pair (string_of_size QCheck.Gen.(4 -- 100)) small_nat)
    (fun (s, pos) ->
      let b = Bytes.of_string ("\000\000" ^ s) in
      let sum = Inet.Chksum.checksum (Bytes.to_string b) in
      Bytes.set b 0 (Char.chr (sum lsr 8));
      Bytes.set b 1 (Char.chr (sum land 0xff));
      let pos = 2 + (pos mod String.length s) in
      let orig = Bytes.get b pos in
      let flipped = Char.chr (Char.code orig lxor 0x01) in
      Bytes.set b pos flipped;
      (* one's-complement sums can miss 0x0000 <-> 0xffff swaps only;
         a single bit flip is always caught *)
      not (Inet.Chksum.valid (Bytes.to_string b)))

(* ---- IL ---- *)

let test_il_connect_and_echo () =
  let eng, _seg, h1, h2 = make_world () in
  let got = ref "" in
  let _server =
    spawn eng ~name:"server" (fun () ->
        let lis = Inet.Il.announce h2.il ~port:17008 in
        let conv = Inet.Il.listen lis in
        match Inet.Il.read_msg conv with
        | Some m -> Inet.Il.write conv ("echo:" ^ m)
        | None -> ())
  in
  let _client =
    spawn eng ~name:"client" (fun () ->
        let conv =
          Inet.Il.connect h1.il ~raddr:(ip "135.104.9.32") ~rport:17008
        in
        Inet.Il.write conv "hello il";
        (match Inet.Il.read_msg conv with
        | Some m -> got := m
        | None -> ());
        Inet.Il.close conv)
  in
  Sim.Engine.run ~until:10.0 eng;
  Alcotest.(check string) "echoed" "echo:hello il" !got

let test_il_preserves_delimiters () =
  let eng, _seg, h1, h2 = make_world () in
  let msgs = ref [] in
  let _server =
    spawn eng (fun () ->
        let lis = Inet.Il.announce h2.il ~port:564 in
        let conv = Inet.Il.listen lis in
        let rec go () =
          match Inet.Il.read_msg conv with
          | Some m ->
            msgs := m :: !msgs;
            go ()
          | None -> ()
        in
        go ())
  in
  let _client =
    spawn eng (fun () ->
        let conv = Inet.Il.connect h1.il ~raddr:(ip "135.104.9.32") ~rport:564 in
        Inet.Il.write conv "one";
        Inet.Il.write conv "two";
        Inet.Il.write conv "three";
        Sim.Time.sleep eng 1.0;
        Inet.Il.close conv)
  in
  Sim.Engine.run ~until:40.0 eng;
  Alcotest.(check (list string)) "message boundaries kept"
    [ "one"; "two"; "three" ] (List.rev !msgs)

let test_il_read_does_not_cross_messages () =
  let eng, _seg, h1, h2 = make_world () in
  let first_read = ref "" in
  let _server =
    spawn eng (fun () ->
        let lis = Inet.Il.announce h2.il ~port:564 in
        let conv = Inet.Il.listen lis in
        first_read := Inet.Il.read conv 100)
  in
  let _client =
    spawn eng (fun () ->
        let conv = Inet.Il.connect h1.il ~raddr:(ip "135.104.9.32") ~rport:564 in
        Inet.Il.write conv "short";
        Inet.Il.write conv "second")
  in
  Sim.Engine.run ~until:10.0 eng;
  Alcotest.(check string) "read stopped at delimiter" "short" !first_read

let test_il_bulk_transfer () =
  let eng, _seg, h1, h2 = make_world () in
  let total = ref 0 in
  let n_msgs = 100 and msg_len = 1000 in
  let _server =
    spawn eng (fun () ->
        let lis = Inet.Il.announce h2.il ~port:17008 in
        let conv = Inet.Il.listen lis in
        let rec go () =
          match Inet.Il.read_msg conv with
          | Some m ->
            total := !total + String.length m;
            go ()
          | None -> ()
        in
        go ())
  in
  let _client =
    spawn eng (fun () ->
        let conv =
          Inet.Il.connect h1.il ~raddr:(ip "135.104.9.32") ~rport:17008
        in
        for _ = 1 to n_msgs do
          Inet.Il.write conv (String.make msg_len 'd')
        done;
        Sim.Time.sleep eng 2.0;
        Inet.Il.close conv)
  in
  Sim.Engine.run ~until:60.0 eng;
  Alcotest.(check int) "all bytes arrived" (n_msgs * msg_len) !total

let test_il_reliable_under_loss () =
  let eng, _seg, h1, h2 = make_world ~loss:0.10 () in
  let received = ref [] in
  let n_msgs = 50 in
  let _server =
    spawn eng (fun () ->
        let lis = Inet.Il.announce h2.il ~port:17008 in
        let conv = Inet.Il.listen lis in
        let rec go () =
          match Inet.Il.read_msg conv with
          | Some m ->
            received := m :: !received;
            go ()
          | None -> ()
        in
        go ())
  in
  let _client =
    spawn eng (fun () ->
        let conv =
          Inet.Il.connect h1.il ~raddr:(ip "135.104.9.32") ~rport:17008
        in
        for i = 1 to n_msgs do
          Inet.Il.write conv (Printf.sprintf "msg-%03d" i)
        done;
        Sim.Time.sleep eng 30.0;
        Inet.Il.close conv)
  in
  Sim.Engine.run ~until:120.0 eng;
  let expect = List.init n_msgs (fun i -> Printf.sprintf "msg-%03d" (i + 1)) in
  Alcotest.(check (list string)) "sequenced, complete, no dups" expect
    (List.rev !received);
  (* and recovery must have gone through queries, not blind resends *)
  let c = Inet.Il.counters h1.il in
  Alcotest.(check bool) "queries were used" true (c.Inet.Il.queries_sent > 0)

let test_il_query_based_recovery () =
  (* with no loss there must be zero retransmits and zero queries *)
  let eng, _seg, h1, h2 = make_world () in
  let _server =
    spawn eng (fun () ->
        let lis = Inet.Il.announce h2.il ~port:17008 in
        let conv = Inet.Il.listen lis in
        let rec go () =
          match Inet.Il.read_msg conv with Some _ -> go () | None -> ()
        in
        go ())
  in
  let _client =
    spawn eng (fun () ->
        let conv =
          Inet.Il.connect h1.il ~raddr:(ip "135.104.9.32") ~rport:17008
        in
        for _ = 1 to 50 do
          Inet.Il.write conv "payload"
        done;
        Sim.Time.sleep eng 2.0;
        Inet.Il.close conv)
  in
  Sim.Engine.run ~until:60.0 eng;
  let c = Inet.Il.counters h1.il in
  Alcotest.(check int) "no spurious retransmits" 0 c.Inet.Il.retransmits;
  Alcotest.(check int) "no spurious queries" 0 c.Inet.Il.queries_sent

let test_il_connect_refused () =
  let eng, _seg, h1, _h2 = make_world () in
  let refused = ref false in
  let _client =
    spawn eng (fun () ->
        try
          ignore
            (Inet.Il.connect h1.il ~raddr:(ip "135.104.9.32") ~rport:9999)
        with Inet.Il.Refused _ -> refused := true)
  in
  Sim.Engine.run ~until:10.0 eng;
  Alcotest.(check bool) "refused" true !refused

let test_il_connect_timeout () =
  let eng, _seg, h1, _h2 = make_world () in
  let timed_out = ref false in
  let _client =
    spawn eng (fun () ->
        try
          (* no such host: ARP can never resolve *)
          ignore
            (Inet.Il.connect h1.il ~raddr:(ip "135.104.9.99") ~rport:17008)
        with Inet.Il.Timeout _ -> timed_out := true)
  in
  Sim.Engine.run ~until:120.0 eng;
  Alcotest.(check bool) "timed out" true !timed_out

let test_il_large_message_fragments () =
  (* an 8k 9P-style message must cross the 1500-byte MTU via IP
     fragmentation and still arrive as one delimited message *)
  let eng, _seg, h1, h2 = make_world () in
  let got = ref "" in
  let payload = String.init 8192 (fun i -> Char.chr (i land 0xff)) in
  let _server =
    spawn eng (fun () ->
        let lis = Inet.Il.announce h2.il ~port:17008 in
        let conv = Inet.Il.listen lis in
        match Inet.Il.read_msg conv with
        | Some m -> got := m
        | None -> ())
  in
  let _client =
    spawn eng (fun () ->
        let conv =
          Inet.Il.connect h1.il ~raddr:(ip "135.104.9.32") ~rport:17008
        in
        Inet.Il.write conv payload)
  in
  Sim.Engine.run ~until:10.0 eng;
  Alcotest.(check bool) "8k message intact" true (!got = payload)

let test_il_window_blocks_writer () =
  let eng, _seg, h1, h2 = make_world () in
  let max_outstanding = ref 0 in
  let _server =
    spawn eng (fun () ->
        let lis = Inet.Il.announce h2.il ~port:17008 in
        let conv = Inet.Il.listen lis in
        let rec go () =
          match Inet.Il.read_msg conv with Some _ -> go () | None -> ()
        in
        go ())
  in
  let _client =
    spawn eng (fun () ->
        let conv =
          Inet.Il.connect h1.il ~raddr:(ip "135.104.9.32") ~rport:17008
        in
        for i = 1 to 100 do
          Inet.Il.write conv (Printf.sprintf "m%d" i);
          let sent = i in
          let c = Inet.Il.counters h1.il in
          let acked = c.Inet.Il.msgs_sent - sent in
          ignore acked;
          max_outstanding := max !max_outstanding 0
        done)
  in
  Sim.Engine.run ~until:60.0 eng;
  (* the real assertion: the transfer completed despite window blocking *)
  let c = Inet.Il.counters h2.il in
  Alcotest.(check int) "all messages delivered" 100 c.Inet.Il.msgs_rcvd

(* property: whatever the loss pattern, IL delivers exactly the sent
   message sequence, in order, without duplicates *)
let prop_il_exactly_once =
  QCheck.Test.make ~name:"il delivers exactly once under any loss" ~count:25
    QCheck.(pair (int_bound 1000) (int_bound 20))
    (fun (seed, loss_pct) ->
      let loss = float_of_int loss_pct /. 100. in
      let eng, _seg, h1, h2 = make_world ~loss ~seed:(seed + 1) () in
      let n = 15 in
      let received = ref [] in
      let _server =
        spawn eng (fun () ->
            let lis = Inet.Il.announce h2.il ~port:7777 in
            let conv = Inet.Il.listen lis in
            let rec go () =
              match Inet.Il.read_msg conv with
              | Some m ->
                received := m :: !received;
                go ()
              | None -> ()
            in
            go ())
      in
      let _client =
        spawn eng (fun () ->
            try
              let conv =
                Inet.Il.connect h1.il ~raddr:(ip "135.104.9.32") ~rport:7777
              in
              for i = 1 to n do
                Inet.Il.write conv (Printf.sprintf "m%02d" i)
              done
            with Inet.Il.Timeout _ | Inet.Il.Refused _ -> ())
      in
      Sim.Engine.run ~until:300.0 eng;
      let expect = List.init n (fun i -> Printf.sprintf "m%02d" (i + 1)) in
      List.rev !received = expect)

(* property: the TCP byte stream arrives intact (right bytes, right
   order) for any write sizes and loss up to 10% *)
let prop_tcp_stream_intact =
  QCheck.Test.make ~name:"tcp stream intact under loss" ~count:15
    QCheck.(pair (int_bound 1000) (list_of_size (Gen.int_range 1 6) (int_range 1 4000)))
    (fun (seed, sizes) ->
      QCheck.assume (sizes <> []);
      let eng, _seg, h1, h2 = make_world ~loss:0.05 ~seed:(seed + 1) () in
      let payload =
        String.concat ""
          (List.mapi (fun i n -> String.make n (Char.chr (65 + (i mod 26)))) sizes)
      in
      let got = Buffer.create (String.length payload) in
      let _server =
        spawn eng (fun () ->
            let lis = Inet.Tcp.announce h2.tcp ~port:7777 in
            let conv = Inet.Tcp.listen lis in
            let rec go () =
              let s = Inet.Tcp.read conv 8192 in
              if s <> "" then begin
                Buffer.add_string got s;
                go ()
              end
            in
            go ())
      in
      let _client =
        spawn eng (fun () ->
            try
              let conv =
                Inet.Tcp.connect h1.tcp ~raddr:(ip "135.104.9.32") ~rport:7777
              in
              List.iteri
                (fun i n ->
                  Inet.Tcp.write conv
                    (String.make n (Char.chr (65 + (i mod 26)))))
                sizes;
              Inet.Tcp.close conv
            with Inet.Tcp.Timeout _ | Inet.Tcp.Refused _ -> ())
      in
      Sim.Engine.run ~until:300.0 eng;
      Buffer.contents got = payload)

(* ---- TCP ---- *)

let test_tcp_connect_and_echo () =
  let eng, _seg, h1, h2 = make_world () in
  let got = ref "" in
  let _server =
    spawn eng (fun () ->
        let lis = Inet.Tcp.announce h2.tcp ~port:513 in
        let conv = Inet.Tcp.listen lis in
        let m = Inet.Tcp.read conv 100 in
        Inet.Tcp.write conv ("echo:" ^ m))
  in
  let _client =
    spawn eng (fun () ->
        let conv =
          Inet.Tcp.connect h1.tcp ~raddr:(ip "135.104.9.32") ~rport:513
        in
        Inet.Tcp.write conv "hello tcp";
        got := Inet.Tcp.read conv 100;
        Inet.Tcp.close conv)
  in
  Sim.Engine.run ~until:30.0 eng;
  Alcotest.(check string) "echoed" "echo:hello tcp" !got

let test_tcp_does_not_preserve_delimiters () =
  (* the paper's motivation for IL: two writes can be read as one *)
  let eng, _seg, h1, h2 = make_world () in
  let first_read = ref "" in
  let _server =
    spawn eng (fun () ->
        let lis = Inet.Tcp.announce h2.tcp ~port:564 in
        let conv = Inet.Tcp.listen lis in
        (* wait for both writes to land, then read once *)
        Sim.Time.sleep eng 1.0;
        first_read := Inet.Tcp.read conv 100)
  in
  let _client =
    spawn eng (fun () ->
        let conv =
          Inet.Tcp.connect h1.tcp ~raddr:(ip "135.104.9.32") ~rport:564
        in
        Inet.Tcp.write conv "one";
        Inet.Tcp.write conv "two")
  in
  Sim.Engine.run ~until:30.0 eng;
  Alcotest.(check string) "writes coalesced" "onetwo" !first_read

let test_tcp_bulk_transfer () =
  let eng, _seg, h1, h2 = make_world () in
  let total = ref 0 in
  let want = 200_000 in
  let _server =
    spawn eng (fun () ->
        let lis = Inet.Tcp.announce h2.tcp ~port:513 in
        let conv = Inet.Tcp.listen lis in
        let rec go () =
          let s = Inet.Tcp.read conv 8192 in
          if s <> "" then begin
            total := !total + String.length s;
            go ()
          end
        in
        go ())
  in
  let _client =
    spawn eng (fun () ->
        let conv =
          Inet.Tcp.connect h1.tcp ~raddr:(ip "135.104.9.32") ~rport:513
        in
        let sent = ref 0 in
        while !sent < want do
          let n = min 16384 (want - !sent) in
          Inet.Tcp.write conv (String.make n 'x');
          sent := !sent + n
        done;
        Inet.Tcp.close conv)
  in
  Sim.Engine.run ~until:120.0 eng;
  Alcotest.(check int) "entire stream delivered" want !total

let test_tcp_reliable_under_loss () =
  let eng, _seg, h1, h2 = make_world ~loss:0.05 () in
  let total = ref 0 in
  let want = 50_000 in
  let _server =
    spawn eng (fun () ->
        let lis = Inet.Tcp.announce h2.tcp ~port:513 in
        let conv = Inet.Tcp.listen lis in
        let rec go () =
          let s = Inet.Tcp.read conv 8192 in
          if s <> "" then begin
            total := !total + String.length s;
            go ()
          end
        in
        go ())
  in
  let _client =
    spawn eng (fun () ->
        let conv =
          Inet.Tcp.connect h1.tcp ~raddr:(ip "135.104.9.32") ~rport:513
        in
        let sent = ref 0 in
        while !sent < want do
          let n = min 4096 (want - !sent) in
          Inet.Tcp.write conv (String.make n 'x');
          sent := !sent + n
        done;
        Inet.Tcp.close conv)
  in
  Sim.Engine.run ~until:300.0 eng;
  Alcotest.(check int) "stream complete despite loss" want !total;
  let c = Inet.Tcp.counters h1.tcp in
  Alcotest.(check bool) "blind retransmissions happened" true
    (c.Inet.Tcp.retransmitted_bytes > 0)

let test_tcp_fin_gives_eof () =
  let eng, _seg, h1, h2 = make_world () in
  let reads = ref [] in
  let _server =
    spawn eng (fun () ->
        let lis = Inet.Tcp.announce h2.tcp ~port:513 in
        let conv = Inet.Tcp.listen lis in
        let rec go () =
          let s = Inet.Tcp.read conv 100 in
          reads := s :: !reads;
          if s <> "" then go ()
        in
        go ())
  in
  let _client =
    spawn eng (fun () ->
        let conv =
          Inet.Tcp.connect h1.tcp ~raddr:(ip "135.104.9.32") ~rport:513
        in
        Inet.Tcp.write conv "bye";
        Inet.Tcp.close conv)
  in
  Sim.Engine.run ~until:30.0 eng;
  Alcotest.(check (list string)) "data then eof" [ "bye"; "" ]
    (List.rev !reads)

let test_tcp_connect_refused () =
  let eng, _seg, h1, _h2 = make_world () in
  let refused = ref false in
  let _client =
    spawn eng (fun () ->
        try
          ignore
            (Inet.Tcp.connect h1.tcp ~raddr:(ip "135.104.9.32") ~rport:9999)
        with Inet.Tcp.Refused _ -> refused := true)
  in
  Sim.Engine.run ~until:30.0 eng;
  Alcotest.(check bool) "rst refuses" true !refused

let test_il_out_of_window_discard () =
  (* "messages outside the window are discarded and must be
     retransmitted": with a window of 4 and the first message lost, at
     most 4 successors are buffered; the rest are discarded and later
     resent.  Everything still arrives exactly once. *)
  let eng = Sim.Engine.create ~seed:21 () in
  let seg = Netsim.Ether.create ~name:"e" eng in
  let mk n addr =
    let nic =
      Netsim.Ether.attach seg
        (Netsim.Eaddr.of_string (Printf.sprintf "08006902%04x" n))
    in
    Inet.Ip.create
      ~addr:(ip addr)
      ~mask:(ip "255.255.255.0")
      (Inet.Etherport.create eng nic)
  in
  (* an eager sender against a small receiver window *)
  let ila =
    Inet.Il.attach
      ~config:{ Inet.Il.default_config with window = 12 }
      (mk 1 "10.0.0.1")
  in
  let ilb =
    Inet.Il.attach
      ~config:{ Inet.Il.default_config with window = 4 }
      (mk 2 "10.0.0.2")
  in
  let got = ref [] in
  let _server =
    spawn eng (fun () ->
        let lis = Inet.Il.announce ilb ~port:1 in
        let conv = Inet.Il.listen lis in
        let rec go () =
          match Inet.Il.read_msg conv with
          | Some m ->
            got := m :: !got;
            go ()
          | None -> ()
        in
        go ())
  in
  let _client =
    spawn eng (fun () ->
        let conv = Inet.Il.connect ila ~raddr:(ip "10.0.0.2") ~rport:1 in
        (* lose exactly the first data message *)
        Netsim.Fault.set_loss (Netsim.Ether.faults seg) 1.0;
        Inet.Il.write conv "m01";
        Netsim.Fault.set_loss (Netsim.Ether.faults seg) 0.0;
        for i = 2 to 12 do
          Inet.Il.write conv (Printf.sprintf "m%02d" i)
        done)
  in
  Sim.Engine.run ~until:120.0 eng;
  let expect = List.init 12 (fun i -> Printf.sprintf "m%02d" (i + 1)) in
  Alcotest.(check (list string)) "exactly once, in order" expect
    (List.rev !got);
  Alcotest.(check bool) "receiver discarded out-of-window messages" true
    ((Inet.Il.counters ilb).Inet.Il.out_of_window > 0)

(* ---- tcpcc: the congestion-controlled variant ---- *)

(* a two-host world speaking tcpcc only; per-side configs let the
   zero-window test shrink one receive buffer *)
let make_cc_world ?(seed = 9) ?cfg1 ?cfg2 () =
  let eng = Sim.Engine.create ~seed () in
  let seg = Netsim.Ether.create ~name:"ether0" eng in
  let mask = ip "255.255.255.0" in
  let mk ?config n addr =
    let nic = Netsim.Ether.attach seg (ea (Printf.sprintf "08006902%04x" n)) in
    let port = Inet.Etherport.create eng nic in
    Inet.Tcp.attach_cc ?config (Inet.Ip.create ~addr:(ip addr) ~mask port)
  in
  let cc1 = mk ?config:cfg1 1 "135.104.9.31" in
  let cc2 = mk ?config:cfg2 2 "135.104.9.32" in
  (eng, seg, cc1, cc2)

let cc_sink eng cc ~port total =
  spawn eng (fun () ->
      let lis = Inet.Tcp.announce cc ~port in
      let conv = Inet.Tcp.listen lis in
      let rec go () =
        let s = Inet.Tcp.read conv 8192 in
        if s <> "" then begin
          total := !total + String.length s;
          go ()
        end
      in
      go ())

let cc_source eng cc ~rport want k =
  spawn eng (fun () ->
      let conv = Inet.Tcp.connect cc ~raddr:(ip "135.104.9.32") ~rport in
      let sent = ref 0 in
      while !sent < want do
        let n = min 4096 (want - !sent) in
        Inet.Tcp.write conv (String.make n 'x');
        sent := !sent + n
      done;
      k conv;
      Inet.Tcp.close conv)

let test_tcpcc_connect_and_echo () =
  let eng, _seg, cc1, cc2 = make_cc_world () in
  let got = ref "" in
  let _server =
    spawn eng (fun () ->
        let lis = Inet.Tcp.announce cc2 ~port:513 in
        let conv = Inet.Tcp.listen lis in
        let m = Inet.Tcp.read conv 100 in
        Inet.Tcp.write conv ("echo:" ^ m))
  in
  let _client =
    spawn eng (fun () ->
        let conv =
          Inet.Tcp.connect cc1 ~raddr:(ip "135.104.9.32") ~rport:513
        in
        Inet.Tcp.write conv "hello tcpcc";
        got := Inet.Tcp.read conv 100;
        Inet.Tcp.close conv)
  in
  Sim.Engine.run ~until:30.0 eng;
  Alcotest.(check string) "echoed" "echo:hello tcpcc" !got

let test_tcpcc_slow_start_opens_cwnd () =
  (* a clean bulk transfer: the congestion window must grow past its
     initial two segments *)
  let eng, _seg, cc1, cc2 = make_cc_world () in
  let total = ref 0 in
  let want = 100_000 in
  let cw = ref 0 in
  let _server = cc_sink eng cc2 ~port:513 total in
  let _client =
    cc_source eng cc1 ~rport:513 want (fun conv -> cw := Inet.Tcp.cwnd conv)
  in
  Sim.Engine.run ~until:60.0 eng;
  Alcotest.(check int) "entire stream delivered" want !total;
  Alcotest.(check bool) "cwnd opened past the initial two segments" true
    (!cw > 2 * Inet.Tcp.default_config.Inet.Tcp.mss)

let test_tcpcc_fast_retransmit () =
  (* deterministically drop one mid-flight data segment: the dup acks
     from its successors must trigger a fast retransmit, not an RTO *)
  let eng, seg, cc1, cc2 = make_cc_world () in
  let total = ref 0 in
  let want = 50_000 in
  let seen = ref 0 in
  Netsim.Fault.set_filter (Netsim.Ether.faults seg) (fun payload ->
      (* data segments are the only large frames; drop the fourth *)
      if String.length payload > 600 then begin
        incr seen;
        if !seen = 4 then Some "planted drop" else None
      end
      else None);
  let _server = cc_sink eng cc2 ~port:513 total in
  let _client = cc_source eng cc1 ~rport:513 want (fun _ -> ()) in
  Sim.Engine.run ~until:60.0 eng;
  Alcotest.(check int) "entire stream delivered" want !total;
  Alcotest.(check bool) "recovered by fast retransmit" true
    ((Inet.Tcp.counters cc1).Inet.Tcp.fast_retransmits > 0)

(* the head-of-window comparison: under an identical deterministic
   mid-stream drop of four data segments, go-back-N resends every
   unacked byte per timeout while tcpcc retransmits only what was
   lost (head of window, then the holes the acks reveal) — so tcpcc
   must retransmit strictly fewer bytes *)
let drop_mid_flight_xfer attach =
  let eng = Sim.Engine.create ~seed:9 () in
  let seg = Netsim.Ether.create ~name:"ether0" eng in
  let mask = ip "255.255.255.0" in
  let mk n addr =
    let nic = Netsim.Ether.attach seg (ea (Printf.sprintf "08006902%04x" n)) in
    let port = Inet.Etherport.create eng nic in
    attach (Inet.Ip.create ~addr:(ip addr) ~mask port)
  in
  let a = mk 1 "135.104.9.31" and b = mk 2 "135.104.9.32" in
  let seen = ref 0 in
  Netsim.Fault.set_filter (Netsim.Ether.faults seg) (fun payload ->
      if String.length payload > 600 then begin
        incr seen;
        if !seen >= 10 && !seen <= 13 then Some "planted drop" else None
      end
      else None);
  let total = ref 0 in
  let want = 30_000 in
  let _server = cc_sink eng b ~port:513 total in
  let _client = cc_source eng a ~rport:513 want (fun _ -> ()) in
  Sim.Engine.run ~until:120.0 eng;
  Alcotest.(check int) "entire stream delivered" want !total;
  (Inet.Tcp.counters a).Inet.Tcp.retransmitted_bytes

let test_tcpcc_rto_head_only () =
  let blind = drop_mid_flight_xfer (fun ip -> Inet.Tcp.attach ip) in
  let cc = drop_mid_flight_xfer (fun ip -> Inet.Tcp.attach_cc ip) in
  Alcotest.(check bool)
    (Printf.sprintf "tcpcc resent fewer bytes (%d < %d)" cc blind)
    true
    (cc < blind)

let test_tcpcc_zero_window_persist () =
  (* regression for the zero-window bug: a stalled reader must quench
     the sender (advertised window 0), the persist timer must probe the
     window open again, and the stream must complete once the reader
     drains.  The baseline proto keeps its bug-compatible behaviour;
     this guards the cc-gated fix. *)
  let small = { Inet.Tcp.default_config with recv_window = 4096 } in
  let eng, _seg, cc1, cc2 = make_cc_world ~cfg2:small () in
  let total = ref 0 in
  let want = 32_768 in
  let _server =
    spawn eng (fun () ->
        let lis = Inet.Tcp.announce cc2 ~port:513 in
        let conv = Inet.Tcp.listen lis in
        (* stall long enough for the sender to fill the 4 KiB buffer
           and sit against a zero window across several probes *)
        Sim.Time.sleep eng 5.0;
        let rec go () =
          let s = Inet.Tcp.read conv 8192 in
          if s <> "" then begin
            total := !total + String.length s;
            go ()
          end
        in
        go ())
  in
  let _client = cc_source eng cc1 ~rport:513 want (fun _ -> ()) in
  Sim.Engine.run ~until:120.0 eng;
  Alcotest.(check int) "entire stream delivered" want !total;
  Alcotest.(check bool) "persist probes fired" true
    ((Inet.Tcp.counters cc1).Inet.Tcp.persist_probes > 0)

let test_tcp_half_close () =
  (* client closes its sending side; the server can keep writing and
     the client drains the rest (CloseWait path) *)
  let eng, _seg, h1, h2 = make_world () in
  let client_got = ref "" in
  let _server =
    spawn eng (fun () ->
        let lis = Inet.Tcp.announce h2.tcp ~port:513 in
        let conv = Inet.Tcp.listen lis in
        (* read until the client's FIN *)
        let rec drain () = if Inet.Tcp.read conv 4096 <> "" then drain () in
        drain ();
        (* now write on the half-open connection *)
        Inet.Tcp.write conv "parting data";
        Inet.Tcp.close conv)
  in
  let _client =
    spawn eng (fun () ->
        let conv =
          Inet.Tcp.connect h1.tcp ~raddr:(ip "135.104.9.32") ~rport:513
        in
        Inet.Tcp.write conv "bye";
        Inet.Tcp.close conv;
        let buf = Buffer.create 32 in
        let rec go () =
          let s = Inet.Tcp.read conv 4096 in
          if s <> "" then begin
            Buffer.add_string buf s;
            go ()
          end
        in
        go ();
        client_got := Buffer.contents buf)
  in
  Sim.Engine.run ~until:60.0 eng;
  Alcotest.(check string) "data after our close" "parting data" !client_got

let test_tcp_write_after_close_raises () =
  let eng, _seg, h1, h2 = make_world () in
  let raised = ref false in
  let _server =
    spawn eng (fun () ->
        let lis = Inet.Tcp.announce h2.tcp ~port:513 in
        ignore (Inet.Tcp.listen lis))
  in
  let _client =
    spawn eng (fun () ->
        let conv =
          Inet.Tcp.connect h1.tcp ~raddr:(ip "135.104.9.32") ~rport:513
        in
        Inet.Tcp.close conv;
        try Inet.Tcp.write conv "zombie"
        with Inet.Tcp.Hungup -> raised := true)
  in
  Sim.Engine.run ~until:30.0 eng;
  Alcotest.(check bool) "write after close" true !raised

let test_il_write_after_close_raises () =
  let eng, _seg, h1, h2 = make_world () in
  let raised = ref false in
  let _server =
    spawn eng (fun () ->
        let lis = Inet.Il.announce h2.il ~port:1 in
        ignore (Inet.Il.listen lis))
  in
  let _client =
    spawn eng (fun () ->
        let conv = Inet.Il.connect h1.il ~raddr:(ip "135.104.9.32") ~rport:1 in
        Inet.Il.close conv;
        try Inet.Il.write conv "zombie" with Inet.Il.Hungup -> raised := true)
  in
  Sim.Engine.run ~until:30.0 eng;
  Alcotest.(check bool) "write after close" true !raised

(* ---- UDP ---- *)

let test_udp_datagram () =
  let eng, _seg, h1, h2 = make_world () in
  let got = ref ("", 0, "") in
  let _server =
    spawn eng (fun () ->
        let conv = Inet.Udp.bind ~port:7 h2.udp in
        let src, sport, data = Inet.Udp.recv conv in
        got := (Inet.Ipaddr.to_string src, sport, data);
        Inet.Udp.send conv ~dst:src ~dport:sport ("re:" ^ data))
  in
  let reply = ref "" in
  let _client =
    spawn eng (fun () ->
        let conv = Inet.Udp.bind ~port:7000 h1.udp in
        Inet.Udp.send conv ~dst:(ip "135.104.9.32") ~dport:7 "ping";
        let _, _, data = Inet.Udp.recv conv in
        reply := data)
  in
  Sim.Engine.run ~until:10.0 eng;
  let src, sport, data = !got in
  Alcotest.(check string) "source addr" "135.104.9.31" src;
  Alcotest.(check int) "source port" 7000 sport;
  Alcotest.(check string) "payload" "ping" data;
  Alcotest.(check string) "reply came back" "re:ping" !reply

let test_udp_no_listener_drops () =
  let eng, _seg, h1, h2 = make_world () in
  let _client =
    spawn eng (fun () ->
        let conv = Inet.Udp.bind h1.udp in
        Inet.Udp.send conv ~dst:(ip "135.104.9.32") ~dport:4242 "void")
  in
  Sim.Engine.run ~until:5.0 eng;
  Alcotest.(check int) "drop counted" 1
    (Inet.Udp.counters h2.udp).Inet.Udp.dg_dropped_noport

(* ---- IP layer details ---- *)

let test_arp_resolves_once () =
  let eng, _seg, h1, h2 = make_world () in
  let _c =
    spawn eng (fun () ->
        let conv = Inet.Udp.bind h1.udp in
        for _ = 1 to 5 do
          Inet.Udp.send conv ~dst:(ip "135.104.9.32") ~dport:9 "x"
        done)
  in
  let _s = spawn eng (fun () -> ignore (Inet.Udp.bind ~port:9 h2.udp)) in
  Sim.Engine.run ~until:5.0 eng;
  Alcotest.(check int) "one arp miss for five sends" 1
    (Inet.Ip.counters h1.ipstack).Inet.Ip.arp_misses;
  Alcotest.(check bool) "cache holds peer" true
    (List.exists
       (fun (a, _) -> Inet.Ipaddr.to_string a = "135.104.9.32")
       (Inet.Ip.arp_cache_dump h1.ipstack))

let test_ip_loopback () =
  let eng, _seg, h1, _h2 = make_world () in
  let got = ref "" in
  let _p =
    spawn eng (fun () ->
        let server = Inet.Udp.bind ~port:7 h1.udp in
        let client = Inet.Udp.bind h1.udp in
        Inet.Udp.send client ~dst:(ip "135.104.9.31") ~dport:7 "self";
        let _, _, data = Inet.Udp.recv server in
        got := data)
  in
  Sim.Engine.run ~until:5.0 eng;
  Alcotest.(check string) "loopback" "self" !got

let test_no_route_raises () =
  let eng, _seg, h1, _h2 = make_world () in
  let raised = ref false in
  let _p =
    spawn eng (fun () ->
        let conv = Inet.Udp.bind h1.udp in
        try Inet.Udp.send conv ~dst:(ip "10.0.0.1") ~dport:9 "x"
        with Inet.Ip.No_route _ -> raised := true)
  in
  Sim.Engine.run ~until:5.0 eng;
  Alcotest.(check bool) "no gateway -> No_route" true !raised

(* ---- IP forwarding across subnets ---- *)

(* two segments joined by a router; a host on each, default gateway
   pointing at the router — the topology the ndb's ipgw entries
   describe *)
let make_routed_world () =
  let eng = Sim.Engine.create () in
  let seg_a = Netsim.Ether.create ~name:"ether0" eng in
  let seg_b = Netsim.Ether.create ~name:"ether1" eng in
  let nic seg n =
    Inet.Etherport.create eng
      (Netsim.Ether.attach seg (ea (Printf.sprintf "08006902%04x" n)))
  in
  let mask = ip "255.255.255.0" in
  (* the router has an interface on each segment; a Route node with
     two attached stacks forwards between them *)
  let r_a = Inet.Ip.create ~addr:(ip "135.104.51.1") ~mask (nic seg_a 1) in
  let r_b = Inet.Ip.create ~addr:(ip "135.104.52.1") ~mask (nic seg_b 2) in
  let node = Route.create ~name:"router" eng in
  Route.set_deliver node (fun raw -> Inet.Ip.deliver_raw r_a raw);
  ignore (Route.attach_stack node ~ifname:"ether0" r_a);
  ignore (Route.attach_stack node ~ifname:"ether1" r_b);
  (* one host per subnet, gateway = the router *)
  let host_a =
    Inet.Ip.create ~gateway:(ip "135.104.51.1") ~addr:(ip "135.104.51.5")
      ~mask (nic seg_a 3)
  in
  let host_b =
    Inet.Ip.create ~gateway:(ip "135.104.52.1") ~addr:(ip "135.104.52.9")
      ~mask (nic seg_b 4)
  in
  (eng, r_a, r_b, host_a, host_b)

let test_routing_il_across_subnets () =
  let eng, r_a, _r_b, host_a, host_b = make_routed_world () in
  let il_a = Inet.Il.attach host_a and il_b = Inet.Il.attach host_b in
  let got = ref "" in
  let _server =
    spawn eng (fun () ->
        let lis = Inet.Il.announce il_b ~port:17008 in
        let conv = Inet.Il.listen lis in
        match Inet.Il.read_msg conv with
        | Some m -> Inet.Il.write conv ("echo:" ^ m)
        | None -> ())
  in
  let _client =
    spawn eng (fun () ->
        let conv =
          Inet.Il.connect il_a ~raddr:(ip "135.104.52.9") ~rport:17008
        in
        Inet.Il.write conv "across the gateway";
        match Inet.Il.read_msg conv with
        | Some m -> got := m
        | None -> ())
  in
  Sim.Engine.run ~until:30.0 eng;
  Alcotest.(check string) "echoed across subnets" "echo:across the gateway"
    !got;
  Alcotest.(check bool) "router forwarded packets" true
    ((Inet.Ip.counters r_a).Inet.Ip.ip_forwarded > 0)

let test_routing_large_message_fragments () =
  (* fragments must survive forwarding *)
  let eng, _r_a, _r_b, host_a, host_b = make_routed_world () in
  let il_a = Inet.Il.attach host_a and il_b = Inet.Il.attach host_b in
  let payload = String.init 8000 (fun i -> Char.chr (i land 0xff)) in
  let got = ref "" in
  let _server =
    spawn eng (fun () ->
        let lis = Inet.Il.announce il_b ~port:1 in
        let conv = Inet.Il.listen lis in
        match Inet.Il.read_msg conv with
        | Some m -> got := m
        | None -> ())
  in
  let _client =
    spawn eng (fun () ->
        let conv = Inet.Il.connect il_a ~raddr:(ip "135.104.52.9") ~rport:1 in
        Inet.Il.write conv payload)
  in
  Sim.Engine.run ~until:30.0 eng;
  Alcotest.(check bool) "fragmented message crossed the router" true
    (!got = payload)

let test_routing_ttl_expiry () =
  (* two routers in a loop would decrement TTL to zero; simulate by
     sending a packet whose only route ping-pongs: host_a -> router,
     destination in neither subnet, both router interfaces gatewayless:
     packet is dropped, counter ticks *)
  let eng, r_a, _r_b, host_a, _host_b = make_routed_world () in
  let udp_a = Inet.Udp.attach host_a in
  let _client =
    spawn eng (fun () ->
        let conv = Inet.Udp.bind udp_a in
        (* 10.9.9.9 is not on either segment *)
        Inet.Udp.send conv ~dst:(ip "10.9.9.9") ~dport:9 "lost")
  in
  Sim.Engine.run ~until:10.0 eng;
  (* the router had no egress: nothing forwarded, nothing crashed *)
  Alcotest.(check int) "no forward possible" 0
    (Inet.Ip.counters r_a).Inet.Ip.ip_forwarded

let () =
  Alcotest.run "inet"
    [
      ( "ipaddr",
        [
          Alcotest.test_case "roundtrip" `Quick test_ipaddr_roundtrip;
          Alcotest.test_case "invalid" `Quick test_ipaddr_invalid;
          Alcotest.test_case "subnet" `Quick test_subnet;
          Alcotest.test_case "class mask" `Quick test_class_mask;
        ] );
      ( "checksum",
        [
          QCheck_alcotest.to_alcotest prop_checksum_validates;
          QCheck_alcotest.to_alcotest prop_checksum_detects_flip;
        ] );
      ( "il",
        [
          Alcotest.test_case "connect and echo" `Quick
            test_il_connect_and_echo;
          Alcotest.test_case "preserves delimiters" `Quick
            test_il_preserves_delimiters;
          Alcotest.test_case "read stops at message" `Quick
            test_il_read_does_not_cross_messages;
          Alcotest.test_case "bulk transfer" `Quick test_il_bulk_transfer;
          Alcotest.test_case "reliable under loss" `Quick
            test_il_reliable_under_loss;
          Alcotest.test_case "no spurious retransmission" `Quick
            test_il_query_based_recovery;
          Alcotest.test_case "connect refused" `Quick test_il_connect_refused;
          Alcotest.test_case "connect timeout" `Quick test_il_connect_timeout;
          Alcotest.test_case "large message fragments" `Quick
            test_il_large_message_fragments;
          Alcotest.test_case "window completes" `Quick
            test_il_window_blocks_writer;
          QCheck_alcotest.to_alcotest prop_il_exactly_once;
          Alcotest.test_case "out-of-window discard" `Quick
            test_il_out_of_window_discard;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "connect and echo" `Quick
            test_tcp_connect_and_echo;
          Alcotest.test_case "no delimiters" `Quick
            test_tcp_does_not_preserve_delimiters;
          Alcotest.test_case "bulk transfer" `Quick test_tcp_bulk_transfer;
          Alcotest.test_case "reliable under loss" `Quick
            test_tcp_reliable_under_loss;
          Alcotest.test_case "fin eof" `Quick test_tcp_fin_gives_eof;
          Alcotest.test_case "connect refused" `Quick
            test_tcp_connect_refused;
          QCheck_alcotest.to_alcotest prop_tcp_stream_intact;
          Alcotest.test_case "half close" `Quick test_tcp_half_close;
          Alcotest.test_case "write after close" `Quick
            test_tcp_write_after_close_raises;
          Alcotest.test_case "il write after close" `Quick
            test_il_write_after_close_raises;
        ] );
      ( "tcpcc",
        [
          Alcotest.test_case "connect and echo" `Quick
            test_tcpcc_connect_and_echo;
          Alcotest.test_case "slow start opens cwnd" `Quick
            test_tcpcc_slow_start_opens_cwnd;
          Alcotest.test_case "fast retransmit" `Quick
            test_tcpcc_fast_retransmit;
          Alcotest.test_case "head-only rto beats go-back-n" `Quick
            test_tcpcc_rto_head_only;
          Alcotest.test_case "zero window persists" `Quick
            test_tcpcc_zero_window_persist;
        ] );
      ( "udp",
        [
          Alcotest.test_case "datagram" `Quick test_udp_datagram;
          Alcotest.test_case "no listener drops" `Quick
            test_udp_no_listener_drops;
        ] );
      ( "ip",
        [
          Alcotest.test_case "arp resolves once" `Quick test_arp_resolves_once;
          Alcotest.test_case "loopback" `Quick test_ip_loopback;
          Alcotest.test_case "no route" `Quick test_no_route_raises;
        ] );
      ( "routing",
        [
          Alcotest.test_case "il across subnets" `Quick
            test_routing_il_across_subnets;
          Alcotest.test_case "fragments forwarded" `Quick
            test_routing_large_message_fragments;
          Alcotest.test_case "unroutable dropped" `Quick
            test_routing_ttl_expiry;
        ] );
    ]
