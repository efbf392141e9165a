(* The routing subsystem: longest-prefix-match tables, the
   /net/iproute ctl grammar, ndb subnet resolution, and end-to-end
   forwarding across gateway hosts and the Datakit transit. *)

let ea = Netsim.Eaddr.of_string
let ip = Inet.Ipaddr.of_string
let spawn = Sim.Proc.spawn
let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

(* ---- the table: longest prefix match ---- *)

let test_lpm_overlapping_prefixes () =
  let t = Route.Table.create () in
  let add d m tgt = Route.Table.add t ~dest:(ip d) ~mask:(ip m) tgt in
  add "10.0.0.0" "255.0.0.0" (Route.Table.Via (ip "10.0.0.1"));
  add "10.1.0.0" "255.255.0.0" (Route.Table.Via (ip "10.1.0.1"));
  add "10.1.2.0" "255.255.255.0" (Route.Table.Via (ip "10.1.2.1"));
  add "10.1.2.3" "255.255.255.255" (Route.Table.Via (ip "10.9.9.9"));
  let hop d =
    match Route.Table.lookup t (ip d) with
    | Some { Route.Table.r_target = Route.Table.Via gw; _ } ->
      Inet.Ipaddr.to_string gw
    | Some _ -> "other"
    | None -> "none"
  in
  Alcotest.(check string) "/8 match" "10.0.0.1" (hop "10.200.0.5");
  Alcotest.(check string) "/16 beats /8" "10.1.0.1" (hop "10.1.9.9");
  Alcotest.(check string) "/24 beats /16" "10.1.2.1" (hop "10.1.2.77");
  Alcotest.(check string) "host route beats /24" "10.9.9.9" (hop "10.1.2.3");
  Alcotest.(check string) "no match" "none" (hop "11.0.0.1")

(* a lookup allocates the [Some] it returns and nothing else: no
   closure, no boxed address *)
let test_lookup_allocates_only_its_result () =
  let t = Route.Table.create () in
  let add d m = Route.Table.add t ~dest:(ip d) ~mask:(ip m) Route.Table.Blackhole in
  add "10.0.0.0" "255.0.0.0";
  add "135.104.9.0" "255.255.255.0";
  add "0.0.0.0" "0.0.0.0";
  (* only the default route matches, so every lookup scans all three *)
  let dst = ip "192.168.1.1" in
  ignore (Sys.opaque_identity (Route.Table.lookup t dst));
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Route.Table.lookup t dst))
  done;
  Alcotest.(check (float 0.)) "words per lookup" 2.
    ((Gc.minor_words () -. before) /. 1000.)

let test_lpm_default_and_blackhole () =
  let t = Route.Table.create () in
  Route.Table.add t ~dest:(ip "0.0.0.0") ~mask:(ip "0.0.0.0")
    (Route.Table.Via (ip "10.0.0.254"));
  Route.Table.add t ~dest:(ip "192.168.0.0") ~mask:(ip "255.255.0.0")
    Route.Table.Blackhole;
  (match Route.Table.lookup t (ip "8.8.8.8") with
  | Some { Route.Table.r_target = Route.Table.Via gw; _ } ->
    Alcotest.(check string) "default route" "10.0.0.254"
      (Inet.Ipaddr.to_string gw)
  | _ -> Alcotest.fail "default route not matched");
  match Route.Table.lookup t (ip "192.168.3.4") with
  | Some { Route.Table.r_target = Route.Table.Blackhole; _ } -> ()
  | _ -> Alcotest.fail "blackhole not matched"

let test_table_add_del_flush () =
  let t = Route.Table.create () in
  Route.Table.add t ~dest:(ip "10.1.2.3") ~mask:(ip "255.255.0.0")
    (Route.Table.Onlink "ether0");
  (* dest is masked down on insert *)
  (match Route.Table.entries t with
  | [ e ] ->
    Alcotest.(check string) "masked dest" "10.1.0.0"
      (Inet.Ipaddr.to_string e.Route.Table.r_dest)
  | _ -> Alcotest.fail "one entry expected");
  (* same dest/mask replaces *)
  Route.Table.add t ~dest:(ip "10.1.0.0") ~mask:(ip "255.255.0.0")
    (Route.Table.Via (ip "10.1.0.9"));
  Alcotest.(check int) "replaced, not duplicated" 1
    (List.length (Route.Table.entries t));
  Alcotest.(check bool) "del missing" false
    (Route.Table.del t ~dest:(ip "11.0.0.0") ~mask:(ip "255.0.0.0"));
  Alcotest.(check bool) "del present" true
    (Route.Table.del t ~dest:(ip "10.1.0.0") ~mask:(ip "255.255.0.0"));
  Route.Table.add t ~dest:(ip "10.0.0.0") ~mask:(ip "255.0.0.0")
    (Route.Table.Onlink "ether0");
  Route.Table.flush t;
  Alcotest.(check int) "flushed" 0 (List.length (Route.Table.entries t))

(* ---- the ctl grammar ---- *)

let make_node () =
  let eng = Sim.Engine.create () in
  let node = Route.create ~name:"n" eng in
  Route.add_iface node
    {
      Route.if_name = "ether0";
      if_addr = ip "10.1.0.2";
      if_mask = ip "255.255.0.0";
      if_emit = (fun ~nexthop:_ _ -> ());
      if_stack = None;
    };
  node

let test_ctl_grammar () =
  let node = make_node () in
  let ok req =
    match Route.ctl node req with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (req ^ ": " ^ e)
  in
  let err req =
    match Route.ctl node req with
    | Ok _ -> Alcotest.fail (req ^ ": accepted")
    | Error _ -> ()
  in
  ok "add 0.0.0.0 0.0.0.0 10.1.0.1";
  ok "add 10.9.0.0 255.255.0.0 onlink ether0";
  ok "add 192.168.0.0 255.255.0.0 blackhole";
  err "add 10.9.0.0 255.255.0.0 onlink ether9" (* no such interface *);
  err "add banana 255.0.0.0 10.1.0.1";
  err "frob";
  let dump = Route.dump node in
  Alcotest.(check bool) "dump lists default" true
    (contains dump "0.0.0.0 0.0.0.0 via 10.1.0.1");
  Alcotest.(check bool) "dump lists blackhole" true
    (contains dump "192.168.0.0 255.255.0.0 blackhole");
  ok "del 192.168.0.0 255.255.0.0";
  err "del 192.168.0.0 255.255.0.0" (* already gone *);
  ok "flush";
  Alcotest.(check int) "flush emptied the table" 0
    (List.length (Route.Table.entries (Route.table node)))

(* ---- ndb: ipnet_entry and gateway resolution ---- *)

let test_ndb_ipnet_resolution () =
  let db = Ndb.of_string (Genndb.subnetted ~leaves:4 ~clients_per_leaf:2 ()) in
  let net_of ipstr =
    match Ndb.ipnet_entry db ~ip:ipstr with
    | Some e -> Option.value ~default:"?" (Ndb.get e "ipnet")
    | None -> "none"
  in
  Alcotest.(check string) "client in leaf3" "leaf3" (net_of "10.3.1.2");
  Alcotest.(check string) "gateway leaf side" "leaf1" (net_of "10.1.0.1");
  Alcotest.(check string) "backbone left" "bbl" (net_of "10.100.0.2");
  Alcotest.(check string) "server subnet" "srv" (net_of "10.200.0.9");
  Alcotest.(check string) "datakit transit" "dkt" (net_of "10.255.0.1");
  Alcotest.(check string) "outside every subnet" "none" (net_of "11.1.1.1");
  (* the gateway and medium attributes ride the subnet entry *)
  (match Ndb.ipnet_entry db ~ip:"10.3.1.2" with
  | Some e ->
    Alcotest.(check (option string)) "leaf ipgw" (Some "10.3.0.1")
      (Ndb.get e "ipgw")
  | None -> Alcotest.fail "no subnet for a leaf client");
  match Ndb.ipnet_entry db ~ip:"10.255.0.2" with
  | Some e ->
    Alcotest.(check (option string)) "dk medium" (Some "dk")
      (Ndb.get e "medium")
  | None -> Alcotest.fail "no subnet for the transit address"

(* ---- the routed world: echo across gateways and the dk transit ---- *)

let small_routed ?seed () =
  let db = Ndb.of_string (Genndb.subnetted ~leaves:2 ~clients_per_leaf:1 ()) in
  let w = P9net.World.routed ?seed ~db () in
  let gws =
    List.map (P9net.World.add_host w) [ "gw01"; "gw02"; "gwcorel"; "gwcorer" ]
  in
  let server = P9net.World.add_host w Genndb.server_sys in
  let cl_left = P9net.World.add_host w (Genndb.client_sys 1 1) in
  let cl_right = P9net.World.add_host w (Genndb.client_sys 2 1) in
  P9net.World.autoroute w;
  P9net.Host.serve_echo server;
  (w, gws, server, cl_left, cl_right)

let test_routed_world_echo () =
  (* cl01-001 sits on leaf1 behind gw01; the path to the server crosses
     gw01, the left backbone, the Datakit tunnel between the cores, and
     the server subnet — four gateway hops *)
  let w, gws, _server, cl_left, cl_right = small_routed () in
  let eng = w.P9net.World.eng in
  let echoes = ref [] in
  List.iter
    (fun (host, tag) ->
      ignore
        (P9net.Host.spawn host ("echo-" ^ tag) (fun env ->
             let conn =
               P9net.Dial.redial env ~tries:20
                 ~pause:(fun () -> Sim.Time.sleep eng 0.05)
                 "il!swarmsrv!echo"
             in
             ignore (Vfs.Env.write env conn.P9net.Dial.data_fd ("ping-" ^ tag));
             let got = Vfs.Env.read env conn.P9net.Dial.data_fd 4096 in
             P9net.Dial.hangup env conn;
             echoes := (tag, got) :: !echoes)))
    [ (cl_left, "left"); (cl_right, "right") ];
  P9net.World.run ~until:120.0 w;
  Alcotest.(check (list (pair string string)))
    "both sides echoed"
    [ ("left", "ping-left"); ("right", "ping-right") ]
    (List.sort compare !echoes);
  let stat f = List.fold_left (fun a gw ->
      match gw.P9net.Host.node with
      | Some n -> a + f (Route.stats n)
      | None -> a) 0 gws
  in
  Alcotest.(check bool) "gateways forwarded" true
    (stat (fun c -> c.Route.forwarded) > 0);
  Alcotest.(check bool) "the dk tunnel carried packets" true
    (stat (fun c -> c.Route.tun_tx) > 0 && stat (fun c -> c.Route.tun_rx) > 0);
  (* a tunnel's process only places the call: packets reach the node
     from the switch's delivery event *)
  let tunnel_ends =
    List.concat_map
      (fun gw ->
        match gw.P9net.Host.node with
        | Some n ->
          List.filter_map
            (fun i ->
              if String.starts_with ~prefix:"dk" i.Route.if_name then
                Some (Route.name n ^ ":" ^ i.Route.if_name)
              else None)
            (Route.ifaces n)
        | None -> [])
      gws
  in
  Alcotest.(check int) "two tunnel ends" 2 (List.length tunnel_ends);
  Alcotest.(check (list string)) "no tunnel process alive" []
    (List.filter (fun p -> List.mem p tunnel_ends) (Sim.Engine.stalled eng));
  Alcotest.(check int) "no drops at the choke point" 0
    (stat (fun c ->
         c.Route.no_route + c.Route.ttl_exceeded + c.Route.blackholed
         + c.Route.transit_refused + c.Route.bad_header))

let test_iproute_file () =
  let w, _gws, _server, cl_left, _cl_right = small_routed () in
  let finished = ref false in
  ignore
    (P9net.Host.spawn cl_left "ctl" (fun env ->
         let dump = Vfs.Env.read_file env "/net/iproute" in
         Alcotest.(check bool) "dump shows the interface" true
           (contains dump "ifc ether0 10.1.1.1");
         Alcotest.(check bool) "dump shows the default route" true
           (contains dump "0.0.0.0 0.0.0.0 via 10.1.0.1");
         (* add, verify, delete through the file *)
         let fd = Vfs.Env.open_ env "/net/iproute" Ninep.Fcall.Ordwr in
         ignore
           (Vfs.Env.write env fd "add 192.168.7.0 255.255.255.0 blackhole");
         Vfs.Env.close env fd;
         let dump = Vfs.Env.read_file env "/net/iproute" in
         Alcotest.(check bool) "added entry shows" true
           (contains dump "192.168.7.0 255.255.255.0 blackhole");
         let fd = Vfs.Env.open_ env "/net/iproute" Ninep.Fcall.Ordwr in
         ignore (Vfs.Env.write env fd "del 192.168.7.0 255.255.255.0");
         Vfs.Env.close env fd;
         let dump = Vfs.Env.read_file env "/net/iproute" in
         Alcotest.(check bool) "deleted entry gone" false
           (contains dump "192.168.7.0");
         finished := true));
  P9net.World.run ~until:30.0 w;
  Alcotest.(check bool) "test body completed" true !finished

(* ---- the choke point: drops are counted and evented ---- *)

let make_two_segment_router () =
  let eng = Sim.Engine.create () in
  let tr = Obs.Trace.create () in
  Sim.Engine.attach_obs eng tr;
  let seg_a = Netsim.Ether.create ~name:"ether0" eng in
  let seg_b = Netsim.Ether.create ~name:"ether1" eng in
  let mask = ip "255.255.255.0" in
  let nic seg n =
    Inet.Etherport.create eng
      (Netsim.Ether.attach seg (ea (Printf.sprintf "08006903%04x" n)))
  in
  let r_a = Inet.Ip.create ~addr:(ip "10.51.0.1") ~mask (nic seg_a 1) in
  let r_b = Inet.Ip.create ~addr:(ip "10.52.0.1") ~mask (nic seg_b 2) in
  let node = Route.create ~name:"router" eng in
  Route.set_deliver node (fun raw -> Inet.Ip.deliver_raw r_a raw);
  ignore (Route.attach_stack node ~ifname:"ether0" r_a);
  ignore (Route.attach_stack node ~ifname:"ether1" r_b);
  let host_a =
    Inet.Ip.create ~gateway:(ip "10.51.0.1") ~addr:(ip "10.51.0.5") ~mask
      (nic seg_a 3)
  in
  (eng, tr, node, host_a)

let test_choke_point_no_route () =
  let eng, tr, node, host_a = make_two_segment_router () in
  let udp = Inet.Udp.attach host_a in
  let _p =
    spawn eng (fun () ->
        let conv = Inet.Udp.bind udp in
        (* 11.9.9.9 matches nothing in the router's table *)
        Inet.Udp.send conv ~dst:(ip "11.9.9.9") ~dport:9 "lost")
  in
  Sim.Engine.run ~until:5.0 eng;
  Alcotest.(check int) "node counted the drop" 1
    (Route.stats node).Route.no_route;
  Alcotest.(check int) "trace counter ip.no_route" 1
    (Obs.Metrics.counter (Obs.Trace.metrics tr) "ip.no_route");
  let dropped =
    List.exists
      (function
        | _, _, Obs.Event.Packet { op = Obs.Event.Drop "no_route"; medium; _ }
          ->
          medium = "route:router"
        | _ -> false)
      (Obs.Trace.events tr)
  in
  Alcotest.(check bool) "drop evented" true dropped

let test_choke_point_blackhole_and_refusal () =
  let eng, tr, node, host_a = make_two_segment_router () in
  Route.Table.add (Route.table node) ~dest:(ip "172.16.0.0")
    ~mask:(ip "255.240.0.0") Route.Table.Blackhole;
  let udp = Inet.Udp.attach host_a in
  let _p =
    spawn eng (fun () ->
        let conv = Inet.Udp.bind udp in
        Inet.Udp.send conv ~dst:(ip "172.16.3.4") ~dport:9 "void")
  in
  Sim.Engine.run ~until:5.0 eng;
  Alcotest.(check int) "blackholed counted" 1
    (Route.stats node).Route.blackholed;
  Alcotest.(check int) "trace counter ip.blackhole" 1
    (Obs.Metrics.counter (Obs.Trace.metrics tr) "ip.blackhole")

let test_ttl_expiry_between_gateways () =
  (* two gateways defaulting at each other: a packet for an address
     neither owns ping-pongs across the shared segment until its TTL
     runs out at the choke point *)
  let eng = Sim.Engine.create () in
  let tr = Obs.Trace.create () in
  Sim.Engine.attach_obs eng tr;
  let seg_a = Netsim.Ether.create ~name:"etherA" eng in
  let seg_m = Netsim.Ether.create ~name:"etherM" eng in
  let seg_b = Netsim.Ether.create ~name:"etherB" eng in
  let mask = ip "255.255.255.0" in
  let nicno = ref 0 in
  let nic seg =
    incr nicno;
    Inet.Etherport.create eng
      (Netsim.Ether.attach seg (ea (Printf.sprintf "08006904%04x" !nicno)))
  in
  let mk_gw name a_seg a_addr m_addr peer =
    let st_a = Inet.Ip.create ~addr:(ip a_addr) ~mask (nic a_seg) in
    let st_m = Inet.Ip.create ~addr:(ip m_addr) ~mask (nic seg_m) in
    let node = Route.create ~name eng in
    Route.set_deliver node (fun raw -> Inet.Ip.deliver_raw st_a raw);
    ignore (Route.attach_stack node ~ifname:"ether0" st_a);
    ignore (Route.attach_stack node ~ifname:"ether1" st_m);
    Route.Table.add (Route.table node) ~dest:(ip "0.0.0.0")
      ~mask:(ip "0.0.0.0")
      (Route.Table.Via (ip peer));
    node
  in
  let gw_a = mk_gw "gwA" seg_a "10.61.0.1" "10.60.0.1" "10.60.0.2" in
  let gw_b = mk_gw "gwB" seg_b "10.62.0.1" "10.60.0.2" "10.60.0.1" in
  let host_a =
    Inet.Ip.create ~gateway:(ip "10.61.0.1") ~addr:(ip "10.61.0.5") ~mask
      (nic seg_a)
  in
  let udp = Inet.Udp.attach host_a in
  let _p =
    spawn eng (fun () ->
        let conv = Inet.Udp.bind udp in
        Inet.Udp.send conv ~dst:(ip "10.99.0.9") ~dport:9 "loop")
  in
  Sim.Engine.run ~until:30.0 eng;
  let ttlx =
    (Route.stats gw_a).Route.ttl_exceeded
    + (Route.stats gw_b).Route.ttl_exceeded
  in
  Alcotest.(check int) "one packet expired" 1 ttlx;
  Alcotest.(check int) "trace counter ip.ttl_exceeded" 1
    (Obs.Metrics.counter (Obs.Trace.metrics tr) "ip.ttl_exceeded");
  Alcotest.(check bool) "it bounced before dying" true
    ((Route.stats gw_a).Route.forwarded
     + (Route.stats gw_b).Route.forwarded
    > 50)

(* ---- transit: one copy per hop ---- *)

(* a raw IP packet with the given TTL, built by hand so the test does
   not share the encoder it checks *)
let ip_packet ~ttl ~src ~dst payload =
  let len = Inet.Ip.header_len + String.length payload in
  let b = Bytes.make len '\000' in
  let put16 off v =
    Bytes.set b off (Char.chr ((v lsr 8) land 0xff));
    Bytes.set b (off + 1) (Char.chr (v land 0xff))
  in
  let put32 off a =
    let v = (ip a :> int) in
    put16 off (v lsr 16);
    put16 (off + 2) (v land 0xffff)
  in
  Bytes.set b 0 '\x45';
  put16 2 len;
  put16 4 77;
  Bytes.set b 8 (Char.chr ttl);
  Bytes.set b 9 (Char.chr Inet.Ip.proto_udp);
  put32 12 src;
  put32 16 dst;
  Bytes.blit_string payload 0 b Inet.Ip.header_len (String.length payload);
  put16 10
    (Inet.Chksum.finish
       (Inet.Chksum.ones_sum (Bytes.to_string b) 0 Inet.Ip.header_len));
  Bytes.to_string b

(* a two-interface gateway whose interfaces record what they emit *)
let capture_gateway () =
  let eng = Sim.Engine.create () in
  let tr = Obs.Trace.create () in
  Sim.Engine.attach_obs eng tr;
  let node = Route.create ~name:"gw" eng in
  let sent = ref [] in
  let iface name addr =
    {
      Route.if_name = name;
      if_addr = ip addr;
      if_mask = ip "255.255.255.0";
      if_emit = (fun ~nexthop raw -> sent := (nexthop, raw) :: !sent);
      if_stack = None;
    }
  in
  let ingress = iface "ether0" "10.71.0.1" in
  Route.add_iface node ingress;
  Route.add_iface node (iface "ether1" "10.72.0.1");
  (node, ingress, tr, sent)

(* everything but the TTL (byte 8) and the checksum (10-11) *)
let unpatched s =
  String.sub s 0 8 ^ String.sub s 9 1 ^ String.sub s 12 (String.length s - 12)

let test_forward_patches_ttl_only () =
  let node, ingress, _tr, sent = capture_gateway () in
  let raw = ip_packet ~ttl:9 ~src:"10.71.0.5" ~dst:"10.72.0.9" "transit" in
  let before = Bytes.to_string (Bytes.of_string raw) in
  Route.input node ~ingress raw;
  match !sent with
  | [ (nexthop, out) ] ->
    Alcotest.(check string) "on-link next hop" "10.72.0.9"
      (Inet.Ipaddr.to_string nexthop);
    Alcotest.(check int) "same length" (String.length raw) (String.length out);
    Alcotest.(check int) "ttl decremented" 8 (Char.code out.[8]);
    Alcotest.(check string) "all else byte-equal" (unpatched raw)
      (unpatched out);
    Alcotest.(check bool) "checksum valid" true
      (Inet.Ip.decode_header out <> None);
    Alcotest.(check string) "ingress string untouched" before raw
  | l -> Alcotest.failf "%d packets emitted, expected 1" (List.length l)

let test_forward_ttl_reaching_one () =
  let node, ingress, tr, sent = capture_gateway () in
  (* TTL 2 leaves with TTL 1; the same packet arriving again dies *)
  Route.input node ~ingress
    (ip_packet ~ttl:2 ~src:"10.71.0.5" ~dst:"10.72.0.9" "last hop");
  let out =
    match !sent with
    | [ (_, out) ] -> out
    | l -> Alcotest.failf "%d packets emitted, expected 1" (List.length l)
  in
  Alcotest.(check int) "left with ttl 1" 1 (Char.code out.[8]);
  Route.input node ~ingress out;
  Alcotest.(check int) "nothing more emitted" 1 (List.length !sent);
  Alcotest.(check int) "node counted ttl_exceeded" 1
    (Route.stats node).Route.ttl_exceeded;
  Alcotest.(check int) "trace counter ip.ttl_exceeded" 1
    (Obs.Metrics.counter (Obs.Trace.metrics tr) "ip.ttl_exceeded")

let test_padded_transit_frame_trimmed () =
  (* a frame longer than its IP header says reaches the gateway's
     Ethernet stack; the forwarded packet is trimmed to the IP length *)
  let eng = Sim.Engine.create () in
  let seg = Netsim.Ether.create ~name:"ether0" eng in
  let gw_ea = ea "080069050001" in
  let st =
    Inet.Ip.create ~addr:(ip "10.71.0.1") ~mask:(ip "255.255.255.0")
      (Inet.Etherport.create eng (Netsim.Ether.attach seg gw_ea))
  in
  let node = Route.create ~name:"gw" eng in
  ignore (Route.attach_stack node ~ifname:"ether0" st);
  let sent = ref [] in
  Route.add_iface node
    {
      Route.if_name = "ether1";
      if_addr = ip "10.72.0.1";
      if_mask = ip "255.255.255.0";
      if_emit = (fun ~nexthop:_ raw -> sent := raw :: !sent);
      if_stack = None;
    };
  let raw = ip_packet ~ttl:9 ~src:"10.71.0.5" ~dst:"10.72.0.9" "padded" in
  let sender = Netsim.Ether.attach seg (ea "080069050002") in
  Netsim.Ether.transmit sender
    {
      Netsim.Ether.src = Netsim.Ether.nic_addr sender;
      dst = gw_ea;
      etype = 0x0800;
      payload = raw ^ String.make 24 '\xee';
    };
  Sim.Engine.run ~until:1.0 eng;
  match !sent with
  | [ out ] ->
    Alcotest.(check int) "trimmed to the IP length" (String.length raw)
      (String.length out);
    Alcotest.(check string) "payload intact" (unpatched raw) (unpatched out);
    Alcotest.(check int) "stack counted the forward" 1
      (Inet.Ip.counters st).Inet.Ip.ip_forwarded
  | l -> Alcotest.failf "%d packets forwarded, expected 1" (List.length l)

(* A frame crossing one gateway, from the wire on one segment to the
   receiver's transport on the other, allocates the copy the forward
   costs (TTL and checksum are patched in it), the frame record that
   carries it, the two delivery events and the view the receiver's
   transport gets: no header record, no route resolution, no address
   comparison garbage. *)
let test_forward_allocation () =
  let eng = Sim.Engine.create () in
  let seg0 = Netsim.Ether.create ~name:"ether0" eng in
  let seg1 = Netsim.Ether.create ~name:"ether1" eng in
  let stack seg e a =
    Inet.Ip.create ~addr:(ip a) ~mask:(ip "255.255.255.0")
      (Inet.Etherport.create eng (Netsim.Ether.attach seg (ea e)))
  in
  let node = Route.create ~name:"gw" eng in
  ignore (Route.attach_stack node ~ifname:"ether0" (stack seg0 "080069060001" "10.71.0.1"));
  ignore (Route.attach_stack node ~ifname:"ether1" (stack seg1 "080069060002" "10.72.0.1"));
  let rcv = stack seg1 "080069060003" "10.72.0.9" in
  let got = ref 0 in
  Inet.Ip.register_proto rcv ~proto:Inet.Ip.proto_udp (fun ~src:_ ~dst:_ _ ->
      incr got);
  (* a few idle stations on each segment, so the frame has others to
     pass by *)
  for n = 4 to 9 do
    ignore (Netsim.Ether.attach seg0 (ea (Printf.sprintf "0800690600%02x" n)));
    ignore (Netsim.Ether.attach seg1 (ea (Printf.sprintf "0800690610%02x" n)))
  done;
  let sender = Netsim.Ether.attach seg0 (ea "080069060010") in
  let gw = ea "080069060001" in
  let raw = ip_packet ~ttl:64 ~src:"10.71.0.5" ~dst:"10.72.0.9" (String.make 100 'x') in
  let send () =
    Netsim.Ether.transmit sender
      {
        Netsim.Ether.src = Netsim.Ether.nic_addr sender;
        dst = gw;
        etype = 0x0800;
        payload = raw;
      };
    Sim.Engine.run eng
  in
  (* the first frame resolves the receiver's address *)
  send ();
  Alcotest.(check int) "first frame through" 1 !got;
  let n = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    send ()
  done;
  let per_frame = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check int) "every frame through" (n + 1) !got;
  (* the copy: a header word and the bytes, padded to a whole word.
     Beside it: two frame records (5 words each), two delivery events
     (entry, time and closure: 15 each), the transport's view (6) and
     the engine run this loop starts per frame (10), 56 words in all;
     the string compares, header options and route resolution once
     here made it 152 *)
  let copy = float_of_int (1 + (String.length raw / 8) + 1) in
  if per_frame > copy +. 60. then
    Alcotest.failf "%.1f minor words per forwarded frame (copy %.0f)" per_frame
      copy

let () =
  Alcotest.run "route"
    [
      ( "table",
        [
          Alcotest.test_case "overlapping prefixes" `Quick
            test_lpm_overlapping_prefixes;
          Alcotest.test_case "default and blackhole" `Quick
            test_lpm_default_and_blackhole;
          Alcotest.test_case "add del flush" `Quick test_table_add_del_flush;
          Alcotest.test_case "lookup allocates only its result" `Quick
            test_lookup_allocates_only_its_result;
        ] );
      ( "ctl",
        [
          Alcotest.test_case "grammar" `Quick test_ctl_grammar;
          Alcotest.test_case "/net/iproute" `Quick test_iproute_file;
        ] );
      ( "ndb",
        [
          Alcotest.test_case "ipnet resolution" `Quick
            test_ndb_ipnet_resolution;
        ] );
      ( "routed world",
        [
          Alcotest.test_case "echo across gateways" `Quick
            test_routed_world_echo;
        ] );
      ( "choke point",
        [
          Alcotest.test_case "no route" `Quick test_choke_point_no_route;
          Alcotest.test_case "blackhole" `Quick
            test_choke_point_blackhole_and_refusal;
          Alcotest.test_case "ttl expiry" `Quick
            test_ttl_expiry_between_gateways;
        ] );
      ( "transit",
        [
          Alcotest.test_case "forward patches ttl and checksum only" `Quick
            test_forward_patches_ttl_only;
          Alcotest.test_case "ttl reaching one drops" `Quick
            test_forward_ttl_reaching_one;
          Alcotest.test_case "padded frame trimmed" `Quick
            test_padded_transit_frame_trimmed;
          Alcotest.test_case "words per forwarded frame" `Quick
            test_forward_allocation;
        ] );
    ]
