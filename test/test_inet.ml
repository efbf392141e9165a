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

let make_world ?loss ?mtu ?(seed = 9) () =
  let eng = Sim.Engine.create ~seed () in
  let seg = Netsim.Ether.create ?loss ~name:"ether0" eng in
  let mask = ip "255.255.255.0" in
  let mk n addr =
    let nic = Netsim.Ether.attach seg (ea (Printf.sprintf "08006902%04x" n)) in
    let port = Inet.Etherport.create eng nic in
    let ipstack = Inet.Ip.create ?mtu ~addr:(ip addr) ~mask port in
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

let test_unsigned_order () =
  Alcotest.(check bool) "10.0.0.1 sorts before 135.104.9.2" true
    (Inet.Ipaddr.compare (ip "10.0.0.1") (ip "135.104.9.2") < 0)

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

(* the definition: big-endian 16-bit words, two bytes at a time, an odd
   last byte padded with zero *)
let bytewise_sum ~init s off len =
  let sum = ref init in
  for k = 0 to len - 1 do
    let c = Char.code s.[off + k] in
    sum := !sum + if k land 1 = 0 then c lsl 8 else c
  done;
  !sum

let prop_ones_sum_bytewise =
  QCheck.Test.make ~name:"word sum equals the byte-wise sum" ~count:500
    QCheck.(
      quad (string_of_size Gen.(0 -- 300)) small_nat small_nat (int_bound 0xfffff))
    (fun (s, a, b, init) ->
      let n = String.length s in
      let off = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - off = 0 then 0 else b mod (n - off + 1) in
      Inet.Chksum.ones_sum ~init s off len = bytewise_sum ~init s off len
      && Inet.Chksum.ones_sum s off len = bytewise_sum ~init:0 s off len)

(* ---- IL ---- *)

let test_il_connect_and_echo () =
  let eng, _seg, h1, h2 = make_world () in
  let got = ref "" in
  let _server =
    spawn eng ~name:"server" (fun () ->
        let lis = Inet.Il.announce h2.il ~port:17008 in
        let conv = Inet.Conv.listen lis in
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
  Alcotest.(check string) "echoed" "echo:hello il" !got;
  (* frames reach IL from the medium's delivery event: no driver
     process is left blocked *)
  Alcotest.(check (list string)) "nothing stalled" [] (Sim.Engine.stalled eng)

let test_il_preserves_delimiters () =
  let eng, _seg, h1, h2 = make_world () in
  let msgs = ref [] in
  let _server =
    spawn eng (fun () ->
        let lis = Inet.Il.announce h2.il ~port:564 in
        let conv = Inet.Conv.listen lis in
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
        let conv = Inet.Conv.listen lis in
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
        let conv = Inet.Conv.listen lis in
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
        let conv = Inet.Conv.listen lis in
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
        let conv = Inet.Conv.listen lis in
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
        with Inet.Conv.Refused _ -> refused := true)
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
        with Inet.Conv.Timeout _ -> timed_out := true)
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
        let conv = Inet.Conv.listen lis in
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
        let conv = Inet.Conv.listen lis in
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
            let conv = Inet.Conv.listen lis in
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
            with Inet.Conv.Timeout _ | Inet.Conv.Refused _ -> ())
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
            let lis = Inet.Conv.announce h2.tcp ~port:7777 in
            let conv = Inet.Conv.listen lis in
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
                Inet.Conv.connect h1.tcp ~raddr:(ip "135.104.9.32") ~rport:7777
              in
              List.iteri
                (fun i n ->
                  Inet.Tcp.write conv
                    (String.make n (Char.chr (65 + (i mod 26)))))
                sizes;
              Inet.Tcp.close conv
            with Inet.Conv.Timeout _ | Inet.Conv.Refused _ -> ())
      in
      Sim.Engine.run ~until:300.0 eng;
      Buffer.contents got = payload)

(* ---- TCP ---- *)

let test_tcp_connect_and_echo () =
  let eng, _seg, h1, h2 = make_world () in
  let got = ref "" in
  let _server =
    spawn eng (fun () ->
        let lis = Inet.Conv.announce h2.tcp ~port:513 in
        let conv = Inet.Conv.listen lis in
        let m = Inet.Tcp.read conv 100 in
        Inet.Tcp.write conv ("echo:" ^ m))
  in
  let _client =
    spawn eng (fun () ->
        let conv =
          Inet.Conv.connect h1.tcp ~raddr:(ip "135.104.9.32") ~rport:513
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
        let lis = Inet.Conv.announce h2.tcp ~port:564 in
        let conv = Inet.Conv.listen lis in
        (* wait for both writes to land, then read once *)
        Sim.Time.sleep eng 1.0;
        first_read := Inet.Tcp.read conv 100)
  in
  let _client =
    spawn eng (fun () ->
        let conv =
          Inet.Conv.connect h1.tcp ~raddr:(ip "135.104.9.32") ~rport:564
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
        let lis = Inet.Conv.announce h2.tcp ~port:513 in
        let conv = Inet.Conv.listen lis in
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
          Inet.Conv.connect h1.tcp ~raddr:(ip "135.104.9.32") ~rport:513
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
        let lis = Inet.Conv.announce h2.tcp ~port:513 in
        let conv = Inet.Conv.listen lis in
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
          Inet.Conv.connect h1.tcp ~raddr:(ip "135.104.9.32") ~rport:513
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
        let lis = Inet.Conv.announce h2.tcp ~port:513 in
        let conv = Inet.Conv.listen lis in
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
          Inet.Conv.connect h1.tcp ~raddr:(ip "135.104.9.32") ~rport:513
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
            (Inet.Conv.connect h1.tcp ~raddr:(ip "135.104.9.32") ~rport:9999)
        with Inet.Conv.Refused _ -> refused := true)
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
        let conv = Inet.Conv.listen lis in
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
      let lis = Inet.Conv.announce cc ~port in
      let conv = Inet.Conv.listen lis in
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
      let conv = Inet.Conv.connect cc ~raddr:(ip "135.104.9.32") ~rport in
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
        let lis = Inet.Conv.announce cc2 ~port:513 in
        let conv = Inet.Conv.listen lis in
        let m = Inet.Tcp.read conv 100 in
        Inet.Tcp.write conv ("echo:" ^ m))
  in
  let _client =
    spawn eng (fun () ->
        let conv =
          Inet.Conv.connect cc1 ~raddr:(ip "135.104.9.32") ~rport:513
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
        let lis = Inet.Conv.announce cc2 ~port:513 in
        let conv = Inet.Conv.listen lis in
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
        let lis = Inet.Conv.announce h2.tcp ~port:513 in
        let conv = Inet.Conv.listen lis in
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
          Inet.Conv.connect h1.tcp ~raddr:(ip "135.104.9.32") ~rport:513
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
        let lis = Inet.Conv.announce h2.tcp ~port:513 in
        ignore (Inet.Conv.listen lis))
  in
  let _client =
    spawn eng (fun () ->
        let conv =
          Inet.Conv.connect h1.tcp ~raddr:(ip "135.104.9.32") ~rport:513
        in
        Inet.Tcp.close conv;
        try Inet.Tcp.write conv "zombie"
        with Inet.Conv.Hungup -> raised := true)
  in
  Sim.Engine.run ~until:30.0 eng;
  Alcotest.(check bool) "write after close" true !raised

let test_il_write_after_close_raises () =
  let eng, _seg, h1, h2 = make_world () in
  let raised = ref false in
  let _server =
    spawn eng (fun () ->
        let lis = Inet.Il.announce h2.il ~port:1 in
        ignore (Inet.Conv.listen lis))
  in
  let _client =
    spawn eng (fun () ->
        let conv = Inet.Il.connect h1.il ~raddr:(ip "135.104.9.32") ~rport:1 in
        Inet.Il.close conv;
        try Inet.Il.write conv "zombie" with Inet.Conv.Hungup -> raised := true)
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

(* a dialed UDP conversation takes only its peer's datagrams: one from
   another port on the same host is dropped as having no port *)
let test_udp_dialed_takes_its_peer () =
  let eng, _seg, h1, h2 = make_world () in
  let got = ref "" in
  let _p =
    spawn eng (fun () ->
        let c = Inet.Conv.connect h1.udp ~raddr:(ip "135.104.9.32") ~rport:9 in
        let lport = ((Inet.Conv.proto h1.udp).ep c).Inet.Conv.lport in
        let peer = Inet.Udp.bind ~port:9 h2.udp in
        let stranger = Inet.Udp.bind ~port:10 h2.udp in
        Inet.Udp.send stranger ~dst:(ip "135.104.9.31") ~dport:lport "no";
        Inet.Udp.send peer ~dst:(ip "135.104.9.31") ~dport:lport "yes";
        got := (Inet.Conv.proto h1.udp).read c 100)
  in
  Sim.Engine.run ~until:5.0 eng;
  Alcotest.(check string) "the peer's datagram" "yes" !got;
  let c = Inet.Udp.counters h1.udp in
  Alcotest.(check int) "one received" 1 c.Inet.Udp.dg_rcvd;
  Alcotest.(check int) "the stranger's dropped" 1 c.Inet.Udp.dg_dropped_noport

(* ---- IP layer details ---- *)

(* the medium's delivery event hands each frame to the connections;
   the driver has no process of its own *)
let test_driver_spawns_nothing () =
  let eng = Sim.Engine.create () in
  let seg = Netsim.Ether.create ~name:"ether0" eng in
  let nic = Netsim.Ether.attach seg (ea "080069020001") in
  ignore (Inet.Etherport.create eng nic);
  Alcotest.(check int) "no process" 0 (Sim.Engine.spawned eng)

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
        let conv = Inet.Conv.listen lis in
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
        let conv = Inet.Conv.listen lis in
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

(* ---- one buffer per message ---- *)

(* an ether frame carrying IL: IPv4 header (version byte 0x45, proto 40
   at offset 9) followed by the IL header, whose type byte sits at
   offset 24.  Type 1 is Data. *)
let il_type pkt =
  if String.length pkt > 24 && pkt.[0] = '\x45' && Char.code pkt.[9] = 40
  then Some (Char.code pkt.[24])
  else None

let test_il_one_copy_per_side () =
  (* from Il.write to the peer's Il.read a message is copied once on
     each side: into the buffer IL hands to IP, and out of the receive
     queue (Block.Q.read's one String.sub of the queued view).  The MTU
     lets the message travel as one frame; a fragmented datagram costs
     a copy per fragment and one to reassemble. *)
  let n = 4096 in
  let eng, _seg, h1, h2 = make_world ~mtu:(2 * n) () in
  let msg = String.make n 'm' in
  let before = ref 0. and after = ref 0. and got = ref "" in
  let _server =
    spawn eng ~name:"server" (fun () ->
        let conv = Inet.Conv.listen (Inet.Il.announce h2.il ~port:17008) in
        got := Inet.Il.read conv (2 * n);
        after := Gc.allocated_bytes ())
  in
  let _client =
    spawn eng ~name:"client" (fun () ->
        let conv =
          Inet.Il.connect h1.il ~raddr:(ip "135.104.9.32") ~rport:17008
        in
        (* let the handshake settle, with the server parked in its read *)
        Sim.Time.sleep eng 1.0;
        before := Gc.allocated_bytes ();
        Inet.Il.write conv msg)
  in
  Sim.Engine.run ~until:10.0 eng;
  Alcotest.(check bool) "message arrived intact" true (!got = msg);
  let budget = float_of_int ((2 * n) + (300 * (Sys.word_size / 8))) in
  let spent = !after -. !before in
  if spent > budget then
    Alcotest.failf "write to read allocated %.0f bytes, budget %.0f" spent
      budget

(* the canonical fault schedule (DESIGN.md): 20% stationary burst loss,
   5% duplication, 5% reordering, 0.5 ms jitter *)
let canonical f =
  Netsim.Fault.set_burst f ~p_enter:0.05 ~p_exit:0.2 ~loss:1.0;
  Netsim.Fault.set_dup f 0.05;
  Netsim.Fault.set_reorder ~delay:2e-3 f 0.05;
  Netsim.Fault.set_jitter f 0.5e-3

let test_il_sent_buffer_never_rewritten () =
  (* the frame on the wire and the copy IL keeps for retransmission are
     one string: losing the first Data frame forces IL to resend from
     it, and the resend (fresh ack, fresh IP id) must not touch the
     captured frame *)
  let eng, seg, h1, h2 = make_world ~seed:11 () in
  let faults = Netsim.Ether.faults seg in
  canonical faults;
  let captured = ref None in
  Netsim.Fault.set_filter faults (fun pkt ->
      match il_type pkt with
      | Some 1 when !captured = None ->
        captured := Some (pkt, Bytes.to_string (Bytes.of_string pkt));
        Some "filter"
      | _ -> None);
  let msgs =
    List.init 40 (fun i ->
        Printf.sprintf "msg-%03d-%s" i (String.make (i * 13) 'z'))
  in
  let got = ref [] in
  let _server =
    spawn eng ~name:"server" (fun () ->
        let conv = Inet.Conv.listen (Inet.Il.announce h2.il ~port:17008) in
        List.iter
          (fun _ ->
            match Inet.Il.read_msg conv with
            | Some m -> got := m :: !got
            | None -> ())
          msgs)
  in
  let _client =
    spawn eng ~name:"client" (fun () ->
        let conv =
          Inet.Il.connect h1.il ~raddr:(ip "135.104.9.32") ~rport:17008
        in
        List.iter (Inet.Il.write conv) msgs)
  in
  Sim.Engine.run ~until:600.0 eng;
  Alcotest.(check (list string)) "every message delivered as written" msgs
    (List.rev !got);
  Alcotest.(check bool) "the lost frame was resent" true
    ((Inet.Il.counters h1.il).Inet.Il.retransmits >= 1);
  match !captured with
  | None -> Alcotest.fail "no Data frame was captured"
  | Some (frame, snapshot) ->
    Alcotest.(check bool) "captured frame byte-identical" true
      (String.equal frame snapshot)

let test_block_views_share_buffer () =
  let s = String.init 64 (fun i -> Char.chr (i + 32)) in
  let b = Block.make ~delim:true s in
  Alcotest.(check bool) "make shares" true (b.Block.buf == s);
  let sub = Block.sub b 10 in
  Alcotest.(check bool) "sub shares" true (sub.Block.buf == s);
  Alcotest.(check string) "sub contents" (String.sub s 0 10)
    (Block.to_string sub);
  let v = Block.view s 8 16 in
  Alcotest.(check bool) "view shares" true (v.Block.buf == s);
  Alcotest.(check string) "view contents" (String.sub s 8 16)
    (Block.to_string v)

let test_ip_hands_up_frame_view () =
  (* a transport handler sees its payload in place in the received
     frame: same bytes, no copy *)
  let eng, seg, h1, h2 = make_world () in
  let proto = 99 in
  let wire = ref "" and seen = ref None in
  Netsim.Fault.set_filter (Netsim.Ether.faults seg) (fun pkt ->
      if String.length pkt > 9 && Char.code pkt.[9] = proto then wire := pkt;
      None);
  Inet.Ip.register_proto h2.ipstack ~proto (fun ~src:_ ~dst:_ pkt ->
      seen := Some pkt);
  let payload = "in place" in
  let buf = Bytes.make (Inet.Ip.header_len + String.length payload) '\000' in
  Bytes.blit_string payload 0 buf Inet.Ip.header_len (String.length payload);
  Inet.Ip.send h1.ipstack ~proto ~dst:(ip "135.104.9.32") buf;
  Sim.Engine.run ~until:10.0 eng;
  match !seen with
  | None -> Alcotest.fail "datagram not delivered"
  | Some pkt ->
    Alcotest.(check string) "payload" payload (Block.to_string pkt);
    Alcotest.(check bool) "view over the frame" true (pkt.Block.buf == !wire);
    Alcotest.(check int) "payload after the IP header" Inet.Ip.header_len
      pkt.Block.rp

(* decoding a header allocates its record (8 words) and the [Some] (2)
   and nothing else: the addresses are immediate *)
let test_decode_header_boxes_nothing () =
  let eng, seg, h1, _ = make_world () in
  let wire = ref "" in
  Netsim.Fault.set_filter (Netsim.Ether.faults seg) (fun pkt ->
      if String.length pkt > 9 && Char.code pkt.[9] = 99 then wire := pkt;
      None);
  Inet.Ip.send h1.ipstack ~proto:99 ~dst:(ip "135.104.9.32")
    (Bytes.make (Inet.Ip.header_len + 8) '\000');
  Sim.Engine.run ~until:10.0 eng;
  let pkt = !wire in
  (match Inet.Ip.decode_header pkt with
  | Some h ->
    Alcotest.(check string) "source" "135.104.9.31" (Inet.Ipaddr.to_string h.h_src)
  | None -> Alcotest.fail "no datagram captured");
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Inet.Ip.decode_header pkt))
  done;
  Alcotest.(check (float 0.)) "words per decode" 10.
    ((Gc.minor_words () -. before) /. 1000.)

(* one 560-byte IL echo round trip, until every timer has lapsed: the
   message and its echo, their acks and the conversations' deadlines:
   548.6 minor words (566.6 when every timer arm built a closure) *)
let test_il_echo_words () =
  let eng, _seg, h1, h2 = make_world () in
  let lis = Inet.Il.announce h2.il ~port:7 in
  ignore
    (spawn eng ~name:"echo" (fun () ->
         let c = Inet.Conv.listen lis in
         while true do
           Option.iter (Inet.Il.write c) (Inet.Il.read_msg c)
         done));
  let go = Sim.Mbox.create eng in
  let msg = String.make 560 'e' in
  let echoed = ref 0 in
  ignore
    (spawn eng ~name:"client" (fun () ->
         let c = Inet.Il.connect h1.il ~raddr:(ip "135.104.9.32") ~rport:7 in
         while true do
           Sim.Mbox.recv go;
           Inet.Il.write c msg;
           if Inet.Il.read_msg c = Some msg then incr echoed
         done));
  let idle () = while Sim.Engine.step eng do () done in
  let round_trip () =
    Sim.Mbox.send go ();
    idle ()
  in
  idle ();
  round_trip ();
  let n = 1_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    round_trip ()
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check int) "every message echoed" (n + 1) !echoed;
  let ceiling = 552. in
  if words > ceiling then
    Alcotest.failf "an IL echo round trip costs %.1f minor words, ceiling %.0f"
      words ceiling

let () =
  Alcotest.run "inet"
    [
      ( "ipaddr",
        [
          Alcotest.test_case "roundtrip" `Quick test_ipaddr_roundtrip;
          Alcotest.test_case "invalid" `Quick test_ipaddr_invalid;
          Alcotest.test_case "subnet" `Quick test_subnet;
          Alcotest.test_case "class mask" `Quick test_class_mask;
          Alcotest.test_case "compare is unsigned" `Quick test_unsigned_order;
        ] );
      ( "checksum",
        [
          QCheck_alcotest.to_alcotest prop_checksum_validates;
          QCheck_alcotest.to_alcotest prop_checksum_detects_flip;
          QCheck_alcotest.to_alcotest prop_ones_sum_bytewise;
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
          Alcotest.test_case "dialed takes its peer" `Quick
            test_udp_dialed_takes_its_peer;
        ] );
      ( "ip",
        [
          Alcotest.test_case "driver spawns nothing" `Quick
            test_driver_spawns_nothing;
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
      ( "one-buffer",
        [
          Alcotest.test_case "one copy per side" `Quick
            test_il_one_copy_per_side;
          Alcotest.test_case "sent buffer never rewritten" `Quick
            test_il_sent_buffer_never_rewritten;
          Alcotest.test_case "block views share the buffer" `Quick
            test_block_views_share_buffer;
          Alcotest.test_case "ip hands up a view of the frame" `Quick
            test_ip_hands_up_frame_view;
          Alcotest.test_case "header decode boxes no address" `Quick
            test_decode_header_boxes_nothing;
          Alcotest.test_case "IL echo round trip words" `Quick
            test_il_echo_words;
        ] );
    ]
