(* Scale regressions: the per-conversation timer economy, ephemeral
   port exhaustion, and listener backlog behaviour.  These pin down
   the properties the swarm bench depends on — above all that an idle
   conversation contributes {e zero} events to the engine, which is
   what lets thousands of them coexist. *)

(* two IP hosts on a loss-free segment, with an observability sink so
   the timer.* counters are assertable *)
let ether_pair () =
  let eng = Sim.Engine.create ~seed:7 () in
  let tr = Obs.Trace.create () in
  Sim.Engine.attach_obs eng tr;
  let seg = Netsim.Ether.create ~name:"e0" eng in
  let mk n addr =
    let nic =
      Netsim.Ether.attach seg
        (Netsim.Eaddr.of_string (Printf.sprintf "08006902%04x" n))
    in
    let port = Inet.Etherport.create eng nic in
    Inet.Ip.create
      ~addr:(Inet.Ipaddr.of_string addr)
      ~mask:(Inet.Ipaddr.of_string "255.255.255.0")
      port
  in
  (eng, tr, mk 1 "10.0.0.1", mk 2 "10.0.0.2")

let counter tr name = Obs.Metrics.counter (Obs.Trace.metrics tr) name

(* ---- idle conversations schedule zero timer events ---- *)

(* the heart of the tentpole: establish a conversation, exchange one
   message, let every pending timer drain (the death timer lapses once
   and does not re-arm) — then over a further hour of virtual time the
   engine must process zero events and the heap must be empty, while
   the conversation is still alive *)
let test_il_idle_is_eventless () =
  let eng, tr, ipa, ipb = ether_pair () in
  let ila = Inet.Il.attach ipa and ilb = Inet.Il.attach ipb in
  let got = ref None in
  ignore
    (Sim.Proc.spawn eng ~name:"rx" (fun () ->
         let lis = Inet.Il.announce ilb ~port:1 in
         let conv = Inet.Conv.listen lis in
         got := Inet.Il.read_msg conv));
  ignore
    (Sim.Proc.spawn eng ~name:"tx" (fun () ->
         let conv =
           Inet.Il.connect ila ~raddr:(Inet.Ipaddr.of_string "10.0.0.2")
             ~rport:1
         in
         Inet.Il.write conv "ping"));
  (* run to quiescence: acks, delayed acks, and the death-timer lapse
     all drain; the conversations stay established *)
  Sim.Engine.run eng;
  Alcotest.(check (option string)) "message delivered" (Some "ping") !got;
  Alcotest.(check int) "conv alive on tx stack" 1 (Inet.Il.conv_count ila);
  Alcotest.(check int) "conv alive on rx stack" 1 (Inet.Il.conv_count ilb);
  Alcotest.(check bool) "timers were used at all" true (counter tr "timer.arm" > 0);
  let events = Sim.Engine.events eng in
  let arms = counter tr "timer.arm" in
  let now = Sim.Engine.now eng in
  Sim.Engine.run ~until:(now +. 3600.) eng;
  Alcotest.(check int) "zero events while idle" events (Sim.Engine.events eng);
  Alcotest.(check int) "zero timer arms while idle" arms (counter tr "timer.arm");
  Alcotest.(check int) "event heap is empty" 0 (Sim.Engine.pending eng)

let test_tcp_idle_is_eventless () =
  let eng, tr, ipa, ipb = ether_pair () in
  let tcpa = Inet.Tcp.attach ipa and tcpb = Inet.Tcp.attach ipb in
  let got = ref "" in
  ignore
    (Sim.Proc.spawn eng ~name:"rx" (fun () ->
         let lis = Inet.Conv.announce tcpb ~port:1 in
         let conv = Inet.Conv.listen lis in
         got := Inet.Tcp.read conv 4));
  ignore
    (Sim.Proc.spawn eng ~name:"tx" (fun () ->
         let conv =
           Inet.Conv.connect tcpa ~raddr:(Inet.Ipaddr.of_string "10.0.0.2")
             ~rport:1
         in
         Inet.Tcp.write conv "ping"));
  Sim.Engine.run eng;
  Alcotest.(check string) "bytes delivered" "ping" !got;
  Alcotest.(check int) "conv alive on tx stack" 1 (Inet.Tcp.conv_count tcpa);
  Alcotest.(check int) "conv alive on rx stack" 1 (Inet.Tcp.conv_count tcpb);
  let events = Sim.Engine.events eng in
  let arms = counter tr "timer.arm" in
  let now = Sim.Engine.now eng in
  Sim.Engine.run ~until:(now +. 3600.) eng;
  Alcotest.(check int) "zero events while idle" events (Sim.Engine.events eng);
  Alcotest.(check int) "zero timer arms while idle" arms (counter tr "timer.arm");
  Alcotest.(check int) "event heap is empty" 0 (Sim.Engine.pending eng)

(* URP too: once a message is exchanged and acked, neither end
   schedules anything — no ticker, no process of its own *)
let test_urp_idle_is_eventless () =
  let eng = Sim.Engine.create ~seed:7 () in
  let tr = Obs.Trace.create () in
  Sim.Engine.attach_obs eng tr;
  let sw = Dk.Switch.create ~name:"dk" eng in
  let la = Dk.Switch.attach sw ~name:"nj/astro/a" in
  let lb = Dk.Switch.attach sw ~name:"nj/astro/b" in
  let got = ref None in
  ignore
    (Sim.Proc.spawn eng ~name:"rx" (fun () ->
         let calls = Dk.Circuit.announce lb ~service:"urp" in
         let conv = Dk.Urp.over (Dk.Circuit.accept (Sim.Mbox.recv calls)) in
         got := Dk.Urp.read_msg conv));
  ignore
    (Sim.Proc.spawn eng ~name:"tx" (fun () ->
         let circ = Dk.Circuit.dial la ~dest:"nj/astro/b" ~service:"urp" in
         Dk.Urp.write (Dk.Urp.over circ) "ping"));
  (* bounded: a ticker per end would never let the heap drain *)
  Sim.Engine.run ~until:60. eng;
  Alcotest.(check (option string)) "message delivered" (Some "ping") !got;
  let events = Sim.Engine.events eng in
  let arms = counter tr "timer.arm" in
  let now = Sim.Engine.now eng in
  Sim.Engine.run ~until:(now +. 3600.) eng;
  Alcotest.(check int) "zero events while idle" events (Sim.Engine.events eng);
  Alcotest.(check int) "zero timer arms while idle" arms (counter tr "timer.arm");
  Alcotest.(check int) "event heap is empty" 0 (Sim.Engine.pending eng);
  Alcotest.(check bool) "the enquiry timer was used" true (arms > 0)

(* ---- the transports, each on the one conversation core ---- *)

let il ip = Inet.Il.attach ip
let tcp ip = Inet.Tcp.attach ip
let tcpcc ip = Inet.Tcp.attach_cc ip
let udp ip = Inet.Udp.attach ip
let peer = Inet.Ipaddr.of_string "10.0.0.2"

(* ---- ephemeral port exhaustion is a clean error ---- *)

(* occupy every ephemeral port with listeners, so the next active open
   has nowhere to bind: the stack must answer Port_exhausted, not spin
   or pick a duplicate *)
let test_port_exhaustion attach () =
  let _eng, _tr, ipa, _ipb = ether_pair () in
  let st = attach ipa in
  for p = 5000 to 64999 do
    ignore (Inet.Conv.announce st ~port:p)
  done;
  match Inet.Conv.connect st ~raddr:peer ~rport:1 with
  | _ -> Alcotest.fail "connect should not find a port"
  | exception Inet.Conv.Port_exhausted -> ()

(* the same condition through the protocol device and dial library:
   the caller sees a Dial_error naming the cause, not a hang *)
let test_dial_port_exhaustion_is_clean () =
  Util.in_world ~from:"musca" (fun w env ->
      let musca = P9net.World.host w "musca" in
      (match musca.P9net.Host.il with
      | Some st ->
        for p = 5000 to 64999 do
          (* the host's standing services already hold a few ports *)
          try ignore (Inet.Il.announce st ~port:p)
          with Invalid_argument _ -> ()
        done
      | None -> Alcotest.fail "musca has no IL stack");
      match P9net.Dial.dial env "il!helix!echo" with
      | _ -> Alcotest.fail "dial should fail"
      | exception P9net.Dial.Dial_error e ->
        Alcotest.(check bool)
          (Printf.sprintf "error names the cause: %s" e)
          true
          (let sub = "no free local ports" in
           let n = String.length sub and m = String.length e in
           let rec find i = i + n <= m && (String.sub e i n = sub || find (i + 1)) in
           find 0))

(* ---- a full backlog refuses without wedging the listener ---- *)

(* Three callers against a backlog of two, before anyone accepts; the
   server drains the queue only afterwards, and a fourth call then
   succeeds — the listener was never wedged by the refusal.  On UDP
   ([~datagram:true]) connecting sends nothing: the call is the first
   datagram, and the caller never sees the refusal. *)
let test_backlog_refusal ?(datagram = false) attach () =
  let eng, _tr, ipa, ipb = ether_pair () in
  let a = attach ipa and b = attach ipb in
  let lis = Inet.Conv.announce b ~backlog:2 ~port:7 in
  let refused = ref 0 and connected = ref 0 and accepted = ref 0 in
  let client delay =
    ignore
      (Sim.Proc.spawn eng ~name:"client" (fun () ->
           Sim.Time.sleep eng delay;
           match Inet.Conv.connect a ~raddr:peer ~rport:7 with
           | c ->
             incr connected;
             if datagram then (Inet.Conv.proto a).write c "call"
           | exception Inet.Conv.Refused _ -> incr refused))
  in
  client 0.0;
  client 0.01;
  client 0.02;
  ignore
    (Sim.Proc.spawn eng ~name:"server" (fun () ->
         Sim.Time.sleep eng 1.0;
         for _ = 1 to 3 do
           ignore (Inet.Conv.listen lis);
           incr accepted
         done));
  client 2.0;
  Sim.Engine.run ~until:60.0 eng;
  if datagram then
    Alcotest.(check int) "every caller connects at once" 4 !connected
  else begin
    Alcotest.(check int) "two early callers connected, plus the late one" 3
      !connected;
    Alcotest.(check int) "one caller refused" 1 !refused
  end;
  Alcotest.(check int) "two early calls accepted, plus the late one" 3
    !accepted;
  Alcotest.(check int) "listener counted the refusal" 1 (Inet.Conv.refused lis);
  Alcotest.(check int) "stack-wide refusals" 1 (Inet.Conv.refusals b)

(* ---- failures name the protocol ---- *)

(* a call to an address nobody answers dies of its handshake timer with
   the protocol's name on it, and a second announce of a port names the
   protocol too *)
let test_errors_name_protocol attach ~name () =
  let eng, _tr, ipa, _ipb = ether_pair () in
  let st = attach ipa in
  let got = ref "" in
  ignore
    (Sim.Proc.spawn eng ~name:"caller" (fun () ->
         match
           Inet.Conv.connect st ~raddr:(Inet.Ipaddr.of_string "10.0.0.9")
             ~rport:7
         with
         | _ -> got := "connected"
         | exception Inet.Conv.Timeout e -> got := e));
  Sim.Engine.run ~until:120.0 eng;
  Alcotest.(check string) "timeout text" (name ^ " connect") !got;
  ignore (Inet.Conv.announce st ~port:7);
  Alcotest.check_raises "announce text"
    (Invalid_argument
       (Printf.sprintf "%s.announce: port 7 in use"
          (String.capitalize_ascii name)))
    (fun () -> ignore (Inet.Conv.announce st ~port:7))

(* ---- the backlog through the ctl file and status text ---- *)

let test_backlog_ctl_and_status () =
  Util.in_world ~from:"helix" (fun _w env ->
      (* UDP's announced ports share the core's backlog *)
      List.iter
        (fun (proto, port) ->
          let ann =
            P9net.Dial.announce env (Printf.sprintf "%s!*!%d" proto port)
          in
          ignore (Vfs.Env.write env ann.P9net.Dial.ann_ctl_fd "backlog 3");
          Alcotest.(check string)
            (proto ^ " status shows the backlog")
            (Printf.sprintf "%s/%s %d Announced backlog 3 queued 0 refused 0\n"
               proto
               (Filename.basename ann.P9net.Dial.ann_dir)
               port)
            (Vfs.Env.read_file env (ann.P9net.Dial.ann_dir ^ "/status")))
        [ ("il", 7777); ("udp", 7778) ])

(* ---- the CS answer cache ---- *)

let test_cs_cache () =
  let db = Ndb.of_string P9net.World.bell_labs_ndb in
  let cs =
    P9net.Cs.make ~sysname:"helix" ~db
      ~networks:
        [
          { P9net.Cs.nw_proto = "il"; nw_clone = "/net/il/clone"; nw_kind = `Inet };
        ]
      ()
  in
  let q = "net!helix!9fs" in
  let first = P9net.Cs.translate cs q in
  let second = P9net.Cs.translate cs q in
  Alcotest.(check bool) "answers agree" true (first = second);
  Alcotest.(check (pair int int)) "one miss, one hit" (1, 1)
    (let h, m = P9net.Cs.cache_stats cs in
     (h, m));
  (* errors are memoized too: a misspelled service re-answers from the
     cache instead of re-walking the database *)
  (match P9net.Cs.translate cs "il!helix!nosuchsvc" with
  | Ok _ -> Alcotest.fail "bogus service should not translate"
  | Error _ -> ());
  (match P9net.Cs.translate cs "il!helix!nosuchsvc" with
  | Ok _ -> Alcotest.fail "bogus service should not translate"
  | Error _ -> ());
  Alcotest.(check (pair int int)) "error answers hit too" (2, 2)
    (let h, m = P9net.Cs.cache_stats cs in
     (h, m));
  P9net.Cs.flush_cache cs;
  Alcotest.(check (pair int int)) "flush zeroes the ledger" (0, 0)
    (let h, m = P9net.Cs.cache_stats cs in
     (h, m));
  (match P9net.Cs.translate cs q with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (pair int int)) "cold again after flush" (0, 1)
    (let h, m = P9net.Cs.cache_stats cs in
     (h, m))

let () =
  Alcotest.run "scale"
    [
      ( "timer-economy",
        [
          Alcotest.test_case "IL: idle conversation is eventless" `Quick
            test_il_idle_is_eventless;
          Alcotest.test_case "TCP: idle conversation is eventless" `Quick
            test_tcp_idle_is_eventless;
          Alcotest.test_case "URP: idle conversation is eventless" `Quick
            test_urp_idle_is_eventless;
        ] );
      ( "port-exhaustion",
        [
          Alcotest.test_case "IL: clean Port_exhausted" `Quick
            (test_port_exhaustion il);
          Alcotest.test_case "TCP: clean Port_exhausted" `Quick
            (test_port_exhaustion tcp);
          Alcotest.test_case "TCPCC: clean Port_exhausted" `Quick
            (test_port_exhaustion tcpcc);
          Alcotest.test_case "dial reports no free local ports" `Quick
            test_dial_port_exhaustion_is_clean;
        ] );
      ( "backlog",
        [
          Alcotest.test_case "IL: full backlog refuses, listener survives"
            `Quick (test_backlog_refusal il);
          Alcotest.test_case "TCP: full backlog refuses, listener survives"
            `Quick (test_backlog_refusal tcp);
          Alcotest.test_case "TCPCC: full backlog refuses, listener survives"
            `Quick (test_backlog_refusal tcpcc);
          Alcotest.test_case "UDP: full backlog refuses, listener survives"
            `Quick
            (test_backlog_refusal ~datagram:true udp);
          Alcotest.test_case "backlog ctl message and status text" `Quick
            test_backlog_ctl_and_status;
        ] );
      ( "errors",
        [
          Alcotest.test_case "IL: failures name the protocol" `Quick
            (test_errors_name_protocol il ~name:"il");
          Alcotest.test_case "TCP: failures name the protocol" `Quick
            (test_errors_name_protocol tcp ~name:"tcp");
          Alcotest.test_case "TCPCC: failures name the protocol" `Quick
            (test_errors_name_protocol tcpcc ~name:"tcpcc");
        ] );
      ("cs-cache", [ Alcotest.test_case "answer cache" `Quick test_cs_cache ]);
    ]
