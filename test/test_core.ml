(* Integration tests for the organization: protocol devices, CS, DNS,
   dial, exportfs/import — the paper's own examples. *)

module F = Ninep.Fcall

(* run a body inside a booted bell-labs world (shared setup in
   {!Util}); this suite's bodies ignore the spawning env *)
let in_world ?seed ?(horizon = 120.0) f =
  Util.in_world ?seed ~horizon ~from:"philw-gnot" (fun w _env -> f w)

let names entries = List.map (fun d -> d.F.d_name) entries

(* ---- connection server ---- *)

let test_cs_net_meta_name () =
  in_world (fun w ->
      let helix = P9net.World.host w "helix" in
      (* the paper's query: net!helix!9fs *)
      match P9net.Cs.translate helix.P9net.Host.cs "net!helix!9fs" with
      | Ok lines ->
        Alcotest.(check (list string)) "paper's reply"
          [
            "/net/il/clone 135.104.9.31!17008";
            "/net/dk/clone nj/astro/helix!9fs";
          ]
          lines
      | Error e -> Alcotest.fail e)

let test_cs_meta_attr () =
  in_world (fun w ->
      let helix = P9net.World.host w "helix" in
      (* net!$auth!rexauth resolves auth=musca from the network entry *)
      match P9net.Cs.translate helix.P9net.Host.cs "net!$auth!rexauth" with
      | Ok lines ->
        Alcotest.(check (list string)) "auth server lines"
          [
            "/net/il/clone 135.104.9.6!17021";
            "/net/dk/clone nj/astro/musca!rexauth";
          ]
          lines
      | Error e -> Alcotest.fail e)

let test_cs_literal_address () =
  in_world (fun w ->
      let helix = P9net.World.host w "helix" in
      match P9net.Cs.translate helix.P9net.Host.cs "tcp!135.104.117.5!513" with
      | Ok lines ->
        Alcotest.(check (list string)) "passes through"
          [ "/net/tcp/clone 135.104.117.5!513" ]
          lines
      | Error e -> Alcotest.fail e)

let test_cs_symbolic_equals_literal () =
  in_world (fun w ->
      let helix = P9net.World.host w "helix" in
      let t q =
        match P9net.Cs.translate helix.P9net.Host.cs q with
        | Ok lines -> lines
        | Error e -> Alcotest.fail e
      in
      (* tcp!musca!login and tcp!135.104.9.6!513 are equivalent *)
      Alcotest.(check (list string)) "same destination"
        (t "tcp!135.104.9.6!513") (t "tcp!musca!login"))

let test_cs_unknown_host_fails () =
  in_world (fun w ->
      let helix = P9net.World.host w "helix" in
      match P9net.Cs.translate helix.P9net.Host.cs "net!zork!echo" with
      | Ok _ -> Alcotest.fail "should not translate"
      | Error _ -> ())

let test_cs_dk_only_terminal () =
  in_world (fun w ->
      let gnot = P9net.World.host w "philw-gnot" in
      (* a Datakit-only terminal only gets dk lines *)
      match P9net.Cs.translate gnot.P9net.Host.cs "net!helix!9fs" with
      | Ok lines ->
        Alcotest.(check (list string)) "dk only"
          [ "/net/dk/clone nj/astro/helix!9fs" ]
          lines
      | Error e -> Alcotest.fail e)

let test_cs_file_interface () =
  in_world (fun w ->
      let helix = P9net.World.host w "helix" in
      let env = Vfs.Env.fork helix.P9net.Host.env in
      (* ndb/csquery: write the name, read the replies *)
      let fd = Vfs.Env.open_ env "/net/cs" F.Ordwr in
      ignore (Vfs.Env.write env fd "net!helix!9fs");
      Vfs.Env.seek env fd 0L;
      let reply = Vfs.Env.read env fd 8192 in
      Vfs.Env.close env fd;
      Alcotest.(check string) "file interface"
        "/net/il/clone 135.104.9.31!17008\n/net/dk/clone nj/astro/helix!9fs\n"
        reply)

let test_cs_dns_fallback () =
  in_world (fun w ->
      let helix = P9net.World.host w "helix" in
      (* ai.mit.edu is not in the database: CS must consult DNS,
         which follows the delegation to the mit zone on ai *)
      match P9net.Cs.translate helix.P9net.Host.cs "tcp!ai.mit.edu!telnet" with
      | Ok lines ->
        Alcotest.(check (list string)) "resolved via dns"
          [ "/net/tcp/clone 135.104.9.99!23" ]
          lines
      | Error e -> Alcotest.fail e)

(* ---- protocol device files ---- *)

let test_clone_semantics () =
  in_world (fun w ->
      let helix = P9net.World.host w "helix" in
      let env = Vfs.Env.fork helix.P9net.Host.env in
      let fd1 = Vfs.Env.open_ env "/net/il/clone" F.Ordwr in
      let fd2 = Vfs.Env.open_ env "/net/il/clone" F.Ordwr in
      let n1 = String.trim (Vfs.Env.read env fd1 32) in
      let n2 = String.trim (Vfs.Env.read env fd2 32) in
      Alcotest.(check bool) "distinct connections" true (n1 <> n2);
      (* the connection directories exist while held *)
      let entries = names (Vfs.Env.ls env "/net/il") in
      Alcotest.(check bool) "conn dirs listed" true
        (List.mem n1 entries && List.mem n2 entries && List.mem "clone" entries);
      Vfs.Env.close env fd1;
      Vfs.Env.close env fd2;
      (* released connections disappear *)
      let entries' = names (Vfs.Env.ls env "/net/il") in
      Alcotest.(check bool) "conn dirs released" true
        ((not (List.mem n1 entries')) && not (List.mem n2 entries')))

let test_conn_dir_files () =
  in_world (fun w ->
      let helix = P9net.World.host w "helix" in
      let env = Vfs.Env.fork helix.P9net.Host.env in
      let fd = Vfs.Env.open_ env "/net/tcp/clone" F.Ordwr in
      let n = String.trim (Vfs.Env.read env fd 32) in
      Alcotest.(check (list string)) "paper's tcp conn dir"
        [ "ctl"; "data"; "listen"; "local"; "remote"; "stats"; "status" ]
        (names (Vfs.Env.ls env ("/net/tcp/" ^ n)));
      Vfs.Env.close env fd)

let test_status_file () =
  in_world (fun w ->
      let helix = P9net.World.host w "helix" in
      let env = Vfs.Env.fork helix.P9net.Host.env in
      let fd = Vfs.Env.open_ env "/net/il/clone" F.Ordwr in
      let n = String.trim (Vfs.Env.read env fd 32) in
      let status =
        String.trim (Vfs.Env.read_file env ("/net/il/" ^ n ^ "/status"))
      in
      Alcotest.(check bool) "closed before connect" true
        (String.length status > 0
        && String.sub status 0 2 = "il"
        &&
        match String.index_opt status 'C' with
        | Some _ -> true
        | None -> false);
      Vfs.Env.close env fd)

let test_ctl_connect_rejected_addr () =
  in_world (fun w ->
      let helix = P9net.World.host w "helix" in
      let env = Vfs.Env.fork helix.P9net.Host.env in
      let fd = Vfs.Env.open_ env "/net/il/clone" F.Ordwr in
      ignore (Vfs.Env.read env fd 32);
      Alcotest.(check bool) "garbage address fails" true
        (try
           ignore (Vfs.Env.write env fd "connect not-an-address");
           false
         with Vfs.Chan.Error _ -> true);
      Vfs.Env.close env fd)

let test_paper_transcript_cat_local_remote_status () =
  (* section 2.3:
       cpu% cat local remote status
       135.104.9.31 5012
       135.104.53.11 564
       tcp/2 1 Established connect                                   *)
  in_world (fun w ->
      let helix = P9net.World.host w "helix" in
      let musca = P9net.World.host w "musca" in
      ignore
        (P9net.Host.spawn musca "sink" (fun env ->
             let ann = P9net.Dial.announce env "tcp!*!564" in
             let conn = P9net.Dial.listen env ann in
             ignore (P9net.Dial.accept env conn);
             Sim.Time.sleep musca.P9net.Host.eng 30.0));
      let env = Vfs.Env.fork helix.P9net.Host.env in
      Sim.Time.sleep helix.P9net.Host.eng 0.1;
      let conn = P9net.Dial.dial env "tcp!135.104.9.6!564" in
      let dir = conn.P9net.Dial.dir in
      let local = String.trim (Vfs.Env.read_file env (dir ^ "/local")) in
      let remote = String.trim (Vfs.Env.read_file env (dir ^ "/remote")) in
      let status = String.trim (Vfs.Env.read_file env (dir ^ "/status")) in
      (* local: our address and an ephemeral port *)
      (match String.split_on_char ' ' local with
      | [ ip; port ] ->
        Alcotest.(check string) "local address" "135.104.9.31" ip;
        Alcotest.(check bool) "local port numeric" true
          (int_of_string_opt port <> None)
      | _ -> Alcotest.fail ("local shape: " ^ local));
      Alcotest.(check string) "remote" "135.104.9.6 564" remote;
      (* status: protocol/conv ... Established ... *)
      Alcotest.(check bool) ("status shape: " ^ status) true
        (String.length status > 4
        && String.sub status 0 4 = "tcp/"
        &&
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i =
            i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
          in
          go 0
        in
        contains status "Established");
      P9net.Dial.hangup env conn)

let test_udp_via_netdev () =
  in_world (fun w ->
      let helix = P9net.World.host w "helix" in
      let musca = P9net.World.host w "musca" in
      (* a udp "listener" through the file interface *)
      ignore
        (P9net.Host.spawn helix "udp-server" (fun env ->
             let ann = P9net.Dial.announce env "udp!*!3049" in
             let conn = P9net.Dial.listen env ann in
             let dfd = P9net.Dial.accept env conn in
             let q = Vfs.Env.read env dfd 4096 in
             ignore (Vfs.Env.write env dfd ("re:" ^ q))));
      let env = Vfs.Env.fork musca.P9net.Host.env in
      Sim.Time.sleep musca.P9net.Host.eng 0.1;
      let conn = P9net.Dial.dial env "udp!135.104.9.31!3049" in
      ignore (Vfs.Env.write env conn.P9net.Dial.data_fd "dgram");
      Alcotest.(check string) "udp conversation" "re:dgram"
        (Vfs.Env.read env conn.P9net.Dial.data_fd 4096);
      (* addresses read "addr port", as on IL and TCP *)
      Alcotest.(check string) "remote" "135.104.9.31 3049\n"
        (Vfs.Env.read_file env (conn.P9net.Dial.dir ^ "/remote"));
      (match
         String.split_on_char ' '
           (Vfs.Env.read_file env (conn.P9net.Dial.dir ^ "/local"))
       with
      | [ "135.104.9.6"; port ] ->
        Alcotest.(check bool) ("local port: " ^ port) true
          (int_of_string_opt (String.trim port) <> None)
      | _ -> Alcotest.fail "local is not \"addr port\"");
      P9net.Dial.hangup env conn)

(* ctl "hangup" must end a read blocked on the conversation, on the
   end hung up: TCP's reader no longer waits for the peer's FIN, and
   UDP's for a datagram nobody will send *)
let test_hangup_ends_blocked_reads proto port () =
  Util.in_world ~from:"musca" (fun w env ->
      let c, s = Scenarios.hangup_readers w env proto ~port in
      let check_end name = function
        | Some (got, dt) ->
          Alcotest.(check string) (name ^ " read ends the stream") "" got;
          Alcotest.(check bool)
            (Printf.sprintf "%s read returns within 2 s of hangup (%.3f)" name dt)
            true (dt <= 2.0)
        | None -> Alcotest.fail (name ^ " read still blocked after hangup")
      in
      check_end "client" c;
      check_end "server" s)

let test_dk_reject_reason_via_files () =
  in_world (fun w ->
      let helix = P9net.World.host w "helix" in
      (* a picky Datakit service that rejects every call with a reason *)
      ignore
        (P9net.Host.spawn helix "grump" (fun env ->
             ignore env;
             let calls =
               Dk.Circuit.announce
                 (Option.get helix.P9net.Host.dkline)
                 ~service:"grump"
             in
             let inc = Sim.Mbox.recv calls in
             Dk.Circuit.reject inc ~reason:"go away"));
      let gnot = P9net.World.host w "philw-gnot" in
      let env = Vfs.Env.fork gnot.P9net.Host.env in
      Sim.Time.sleep gnot.P9net.Host.eng 0.1;
      match P9net.Dial.dial env "dk!nj/astro/helix!grump" with
      | _ -> Alcotest.fail "should be rejected"
      | exception P9net.Dial.Dial_error e ->
        (* the Datakit rejection reason survives to the dialer *)
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i =
            i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) ("reason in: " ^ e) true
          (contains e "go away"))

(* ---- dial / announce / listen (section 5) ---- *)

let test_echo_over_il () =
  in_world (fun w ->
      let gnot = P9net.World.host w "philw-gnot" in
      let env = Vfs.Env.fork gnot.P9net.Host.env in
      (* gnot is dk-only; echo service reached over Datakit *)
      let conn = P9net.Dial.dial env "net!helix!echo" in
      ignore (Vfs.Env.write env conn.P9net.Dial.data_fd "hello plan 9");
      let reply = Vfs.Env.read env conn.P9net.Dial.data_fd 8192 in
      P9net.Dial.hangup env conn;
      Alcotest.(check string) "echoed" "hello plan 9" reply)

let test_dial_prefers_il_on_cpu_server () =
  in_world (fun w ->
      let musca = P9net.World.host w "musca" in
      let env = Vfs.Env.fork musca.P9net.Host.env in
      let conn = P9net.Dial.dial env "net!helix!echo" in
      Alcotest.(check bool) "via /net/il" true
        (String.length conn.P9net.Dial.dir >= 7
        && String.sub conn.P9net.Dial.dir 0 7 = "/net/il");
      ignore (Vfs.Env.write env conn.P9net.Dial.data_fd "x");
      ignore (Vfs.Env.read env conn.P9net.Dial.data_fd 10);
      P9net.Dial.hangup env conn)

let test_announce_listen_accept () =
  in_world (fun w ->
      let helix = P9net.World.host w "helix" in
      let musca = P9net.World.host w "musca" in
      (* hand-rolled section 5.2 echo server on a fresh service port *)
      ignore
        (P9net.Host.spawn helix "echo-server" (fun env ->
             let ann = P9net.Dial.announce env "il!*!19999" in
             let conn = P9net.Dial.listen env ann in
             let dfd = P9net.Dial.accept env conn in
             let data = Vfs.Env.read env dfd 8192 in
             ignore (Vfs.Env.write env dfd data);
             Vfs.Env.close env dfd));
      let env = Vfs.Env.fork musca.P9net.Host.env in
      Sim.Time.sleep musca.P9net.Host.eng 0.1;
      let conn = P9net.Dial.dial env "il!135.104.9.31!19999" in
      ignore (Vfs.Env.write env conn.P9net.Dial.data_fd "ping");
      Alcotest.(check string) "echo" "ping"
        (Vfs.Env.read env conn.P9net.Dial.data_fd 8192);
      P9net.Dial.hangup env conn)

let test_netmkaddr () =
  Alcotest.(check string) "fills net and svc" "net!helix!9fs"
    (P9net.Dial.netmkaddr "helix" ~defsvc:"9fs" ());
  Alcotest.(check string) "complete passes" "il!h!echo"
    (P9net.Dial.netmkaddr "il!h!echo" ());
  Alcotest.(check string) "fills svc" "tcp!h!login"
    (P9net.Dial.netmkaddr "tcp!h" ~defsvc:"login" ())

(* ---- DNS ---- *)

let test_dns_file () =
  in_world (fun w ->
      let musca = P9net.World.host w "musca" in
      let env = Vfs.Env.fork musca.P9net.Host.env in
      let fd = Vfs.Env.open_ env "/net/dns" F.Ordwr in
      ignore (Vfs.Env.write env fd "helix.research.bell-labs.com ip");
      Vfs.Env.seek env fd 0L;
      let reply = Vfs.Env.read env fd 8192 in
      Vfs.Env.close env fd;
      Alcotest.(check string) "rr line"
        "helix.research.bell-labs.com ip\t135.104.9.31\n" reply)

let test_dns_delegation_and_cache () =
  in_world (fun w ->
      let musca = P9net.World.host w "musca" in
      let r = Option.get musca.P9net.Host.resolver in
      Alcotest.(check (list string)) "follows referral" [ "135.104.9.99" ]
        (P9net.Dns.lookup_ip r "ai.mit.edu");
      let c = P9net.Dns.counters r in
      Alcotest.(check bool) "referral was followed" true
        (c.P9net.Dns.referrals_followed >= 1);
      let before_hits = c.P9net.Dns.cache_hits in
      Alcotest.(check (list string)) "cached answer" [ "135.104.9.99" ]
        (P9net.Dns.lookup_ip r "ai.mit.edu");
      Alcotest.(check int) "cache hit" (before_hits + 1)
        (P9net.Dns.counters r).P9net.Dns.cache_hits)

let test_dns_negative () =
  in_world (fun w ->
      let musca = P9net.World.host w "musca" in
      let r = Option.get musca.P9net.Host.resolver in
      Alcotest.(check (list string)) "nx" []
        (P9net.Dns.lookup_ip r "no.such.host.example"))

(* ---- exportfs / import: the section 6.1 gateway ---- *)

let test_import_unions_net () =
  in_world (fun w ->
      let gnot = P9net.World.host w "philw-gnot" in
      let env = Vfs.Env.fork gnot.P9net.Host.env in
      let before = names (Vfs.Env.ls env "/net") in
      (* the paper: philw-gnot% ls /net -> /net/cs /net/dk
         (plus our kernel event log) *)
      Alcotest.(check (list string)) "before import"
        [ "cs"; "dk"; "log"; "metrics" ]
        before;
      P9net.Exportfs.import w.P9net.World.eng env ~host:"helix"
        ~remote_root:"/net" ~onto:"/net" ~flag:Vfs.Ns.After ();
      let after = names (Vfs.Env.ls env "/net") in
      (* all of helix's networks are now visible *)
      List.iter
        (fun want ->
          Alcotest.(check bool) ("after import has " ^ want) true
            (List.mem want after))
        [ "cs"; "dk"; "dns"; "ether0"; "il"; "tcp"; "udp" ])

let test_import_gateway_dials_tcp () =
  in_world ~horizon:240.0 (fun w ->
      let gnot = P9net.World.host w "philw-gnot" in
      let env = Vfs.Env.fork gnot.P9net.Host.env in
      P9net.Exportfs.import w.P9net.World.eng env ~host:"helix"
        ~remote_root:"/net" ~onto:"/net" ~flag:Vfs.Ns.After ();
      (* telnet ai.mit.edu — via helix's TCP, transparently *)
      let conn = P9net.Dial.dial env "tcp!135.104.9.99!23" in
      let banner = Vfs.Env.read env conn.P9net.Dial.data_fd 8192 in
      Alcotest.(check string) "banner through the gateway"
        "ai.mit.edu login: " banner;
      ignore (Vfs.Env.write env conn.P9net.Dial.data_fd "philw\n");
      let reply = Vfs.Env.read env conn.P9net.Dial.data_fd 8192 in
      Alcotest.(check string) "conversation works"
        "Last login by philw\n" reply;
      P9net.Dial.hangup env conn)

(* 9P through exportfs on every IP network, with writes shorter and
   longer than one TCP segment: TCP "does not preserve delimiters", so
   on tcp and tcpcc both ends frame the messages *)
let test_import_rw_every_network () =
  List.iter
    (fun proto ->
      List.iter
        (fun size ->
          Util.in_world ~horizon:60.0 ~from:"musca" (fun w env ->
              let data = String.init size (fun i -> Char.chr (32 + (i mod 95))) in
              P9net.Exportfs.import w.P9net.World.eng env ~proto ~host:"helix"
                ~remote_root:"/tmp" ~onto:"/n" ~flag:Vfs.Ns.Repl ();
              Vfs.Env.write_file env "/n/x" data;
              Alcotest.(check string)
                (Printf.sprintf "%s: %d bytes back" proto size)
                data
                (Vfs.Env.read_file env "/n/x")))
        [ 1; 8000 ])
    [ "il"; "tcp"; "tcpcc" ]

let test_import_local_supersedes () =
  in_world (fun w ->
      let musca = P9net.World.host w "musca" in
      let env = Vfs.Env.fork musca.P9net.Host.env in
      P9net.Exportfs.import w.P9net.World.eng env ~host:"helix"
        ~remote_root:"/net" ~onto:"/net" ~flag:Vfs.Ns.After ();
      (* dialing through /net must still use the LOCAL il device:
         local entries supersede remote ones of the same name *)
      let conn = P9net.Dial.dial env "il!135.104.9.31!56" in
      ignore (Vfs.Env.write env conn.P9net.Dial.data_fd "local?");
      Alcotest.(check string) "local device used, echo works" "local?"
        (Vfs.Env.read env conn.P9net.Dial.data_fd 8192);
      (* the conversation must exist on musca's own il stack *)
      let c = Inet.Il.counters (Option.get musca.P9net.Host.il) in
      Alcotest.(check bool) "traffic on local stack" true
        (c.Inet.Il.msgs_sent > 0);
      P9net.Dial.hangup env conn)

let test_rename_and_stat_through_import () =
  (* wstat (rename) must survive the full 9P/IL path *)
  in_world (fun w ->
      let helix = P9net.World.host w "helix" in
      let musca = P9net.World.host w "musca" in
      Ninep.Ramfs.add_file helix.P9net.Host.root "/tmp/draft" "v1";
      let env = Vfs.Env.fork musca.P9net.Host.env in
      P9net.Exportfs.import w.P9net.World.eng env ~host:"helix"
        ~remote_root:"/tmp" ~onto:"/n" ~flag:Vfs.Ns.Repl ();
      let d = Vfs.Env.stat env "/n/draft" in
      Alcotest.(check string) "stat name over the wire" "draft"
        d.F.d_name;
      Alcotest.(check int64) "stat length over the wire" 2L d.F.d_length;
      Vfs.Env.wstat env "/n/draft" { d with F.d_name = "final" };
      Alcotest.(check bool) "renamed on the server" true
        (Ninep.Ramfs.exists helix.P9net.Host.root "/tmp/final");
      Alcotest.(check bool) "old name gone" false
        (Ninep.Ramfs.exists helix.P9net.Host.root "/tmp/draft"))

let test_cs_requery_same_fd () =
  (* each write resets the reply; the fd can be reused like ndb/csquery
     does interactively *)
  in_world (fun w ->
      let helix = P9net.World.host w "helix" in
      let env = Vfs.Env.fork helix.P9net.Host.env in
      let fd = Vfs.Env.open_ env "/net/cs" F.Ordwr in
      ignore (Vfs.Env.write env fd "il!musca!echo");
      Vfs.Env.seek env fd 0L;
      Alcotest.(check string) "first query"
        "/net/il/clone 135.104.9.6!56\n"
        (Vfs.Env.read env fd 8192);
      ignore (Vfs.Env.write env fd "il!helix!9fs");
      Vfs.Env.seek env fd 0L;
      Alcotest.(check string) "second query on the same fd"
        "/net/il/clone 135.104.9.31!17008\n"
        (Vfs.Env.read env fd 8192);
      Vfs.Env.close env fd)

let test_remote_cs_answers_with_its_networks () =
  (* after import -b (remote first), /net/cs is HELIX's connection
     server: a Datakit-only terminal gets answers mentioning networks
     it doesn't have locally — which now resolve through the same
     union.  The dual of "local entries supersede". *)
  in_world (fun w ->
      let gnot = P9net.World.host w "philw-gnot" in
      let env = Vfs.Env.fork gnot.P9net.Host.env in
      P9net.Exportfs.import w.P9net.World.eng env ~host:"helix"
        ~remote_root:"/net" ~onto:"/net" ~flag:Vfs.Ns.Before ();
      let fd = Vfs.Env.open_ env "/net/cs" F.Ordwr in
      ignore (Vfs.Env.write env fd "net!musca!echo");
      Vfs.Env.seek env fd 0L;
      let reply = Vfs.Env.read env fd 8192 in
      Vfs.Env.close env fd;
      (* helix's cs prefers IL; gnot's own cs would have said dk only *)
      Alcotest.(check string) "helix's view of the network"
        "/net/il/clone 135.104.9.6!56\n\
         /net/dk/clone nj/astro/musca!echo\n\
         /net/tcp/clone 135.104.9.6!7\n\
         /net/tcpcc/clone 135.104.9.6!7\n"
        reply;
      (* and the il line is actionable: the clone file resolves to
         helix's device through the same union *)
      let conn = P9net.Dial.dial env "il!135.104.9.6!56" in
      ignore (Vfs.Env.write env conn.P9net.Dial.data_fd "via gateway");
      Alcotest.(check string) "echo over the imported IL" "via gateway"
        (Vfs.Env.read env conn.P9net.Dial.data_fd 8192);
      P9net.Dial.hangup env conn)

let test_exportfs_read_write_files () =
  in_world (fun w ->
      let helix = P9net.World.host w "helix" in
      let gnot = P9net.World.host w "philw-gnot" in
      Ninep.Ramfs.add_file helix.P9net.Host.root "/tmp/shared" "from helix";
      let env = Vfs.Env.fork gnot.P9net.Host.env in
      P9net.Exportfs.import w.P9net.World.eng env ~host:"helix"
        ~remote_root:"/tmp" ~onto:"/n" ~flag:Vfs.Ns.Repl ();
      Alcotest.(check string) "read remote file" "from helix"
        (Vfs.Env.read_file env "/n/shared");
      Vfs.Env.write_file env "/n/reply" "from gnot";
      Alcotest.(check (option string)) "write visible on helix"
        (Some "from gnot")
        (Ninep.Ramfs.read_file helix.P9net.Host.root "/tmp/reply"))

(* ---- the ether device (Figure 1) ---- *)

let test_ether_tree_figure1 () =
  in_world (fun w ->
      let helix = P9net.World.host w "helix" in
      let env = Vfs.Env.fork helix.P9net.Host.env in
      (* the ip stack holds connections 0 (ip) and 1 (arp) *)
      let top = names (Vfs.Env.ls env "/net/ether0") in
      Alcotest.(check bool) "clone present" true (List.mem "clone" top);
      let fd = Vfs.Env.open_ env "/net/ether0/clone" F.Ordwr in
      let n = String.trim (Vfs.Env.read env fd 32) in
      Alcotest.(check (list string)) "figure 1 files"
        [ "ctl"; "data"; "stats"; "type" ]
        (names (Vfs.Env.ls env ("/net/ether0/" ^ n)));
      ignore (Vfs.Env.write env fd "connect 2048");
      Alcotest.(check string) "type file" "2048"
        (String.trim (Vfs.Env.read_file env ("/net/ether0/" ^ n ^ "/type")));
      let stats = Vfs.Env.read_file env "/net/ether0/0/stats" in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "stats mentions the address" true
        (contains stats "0800690222f0");
      Vfs.Env.close env fd)

(* The device's directories are the driver's connection table: a cloned
   connection lives while any of its files is open and leaves the
   table with the last clunk; the kernel's own stay and refuse
   writes. *)
let test_ether_conn_lifetime () =
  in_world (fun w ->
      let helix = P9net.World.host w "helix" in
      let port = Option.get helix.P9net.Host.etherport in
      let env = Vfs.Env.fork helix.P9net.Host.env in
      let ids () = List.map Inet.Etherport.conn_id (Inet.Etherport.conns port) in
      let kernel = ids () in
      let fd = Vfs.Env.open_ env "/net/ether0/clone" F.Ordwr in
      let n = String.trim (Vfs.Env.read env fd 32) in
      let id = int_of_string n in
      Alcotest.(check (list int)) "listed once cloned" (kernel @ [ id ]) (ids ());
      let data = Vfs.Env.open_ env ("/net/ether0/" ^ n ^ "/data") F.Oread in
      Vfs.Env.close env fd;
      Alcotest.(check bool) "held by its data file" true
        (Inet.Etherport.find port id <> None);
      Vfs.Env.close env data;
      Alcotest.(check (list int)) "gone with the last clunk" kernel (ids ());
      Alcotest.(check bool) "not found by id" true
        (Inet.Etherport.find port id = None);
      Alcotest.(check bool) "its directory is gone" true
        (try
           ignore (Vfs.Env.stat env ("/net/ether0/" ^ n));
           false
         with Vfs.Chan.Error _ -> true);
      let k = "/net/ether0/" ^ string_of_int (List.hd kernel) in
      List.iter
        (fun (file, msg) ->
          let fd = Vfs.Env.open_ env (k ^ "/" ^ file) F.Owrite in
          Alcotest.(check string) (file ^ " of a kernel connection")
            "connection belongs to the kernel"
            (try
               ignore (Vfs.Env.write env fd msg);
               "written"
             with Vfs.Chan.Error e -> e);
          Vfs.Env.close env fd)
        [ ("ctl", "connect 2054"); ("data", "ffffffffffffhello") ];
      Alcotest.(check (list int)) "kernel connections stay" kernel (ids ()))

(* a clone connection nobody reads drops what overflows its queue, and
   the interface's stats file counts each drop *)
let test_ether_overflow_counted () =
  in_world (fun w ->
      let helix = P9net.World.host w "helix" in
      let env = Vfs.Env.fork helix.P9net.Host.env in
      let fd = Vfs.Env.open_ env "/net/ether0/clone" F.Ordwr in
      let n = String.trim (Vfs.Env.read env fd 32) in
      ignore (Vfs.Env.write env fd "connect -1");
      let stats () = Vfs.Env.read_file env ("/net/ether0/" ^ n ^ "/stats") in
      let overflows () =
        List.find_map
          (fun l -> Scanf.sscanf_opt l "overflows: %d" Fun.id)
          (String.split_on_char '\n' (stats ()))
      in
      Alcotest.(check (option int)) "none yet" (Some 0) (overflows ());
      let sender =
        Netsim.Ether.attach w.P9net.World.ether
          (Netsim.Eaddr.of_string "08006902beee")
      in
      let dst = Inet.Etherport.addr (Option.get helix.P9net.Host.etherport) in
      (* 200 KiB at an interface whose reader holds 128 KiB *)
      for _ = 1 to 200 do
        Netsim.Ether.transmit sender
          {
            Netsim.Ether.src = Netsim.Ether.nic_addr sender;
            dst;
            etype = 0x1234;
            payload = String.make 1024 'z';
          }
      done;
      Sim.Time.sleep w.P9net.World.eng 1.0;
      match overflows () with
      | Some k when k > 0 && k < 200 -> Vfs.Env.close env fd
      | Some k -> Alcotest.failf "overflows: %d of 200 frames" k
      | None -> Alcotest.failf "no overflows line in:\n%s" (stats ()))

let test_ether_snoop () =
  in_world (fun w ->
      let helix = P9net.World.host w "helix" in
      let musca = P9net.World.host w "musca" in
      let env = Vfs.Env.fork helix.P9net.Host.env in
      (* configure a snooping conversation: connect -1, promiscuous *)
      let fd = Vfs.Env.open_ env "/net/ether0/clone" F.Ordwr in
      let n = String.trim (Vfs.Env.read env fd 32) in
      ignore (Vfs.Env.write env fd "connect -1");
      ignore (Vfs.Env.write env fd "promiscuous");
      let data_fd =
        Vfs.Env.open_ env ("/net/ether0/" ^ n ^ "/data") F.Oread
      in
      (* generate unrelated traffic between musca and ai *)
      ignore
        (P9net.Host.spawn musca "noise" (fun menv ->
             let conn = P9net.Dial.dial menv "tcp!135.104.9.99!23" in
             ignore (Vfs.Env.read menv conn.P9net.Dial.data_fd 8192);
             P9net.Dial.hangup menv conn));
      let frame = Vfs.Env.read env data_fd 4096 in
      Alcotest.(check bool) "snooped a frame not addressed to us" true
        (String.length frame > 12);
      Vfs.Env.close env data_fd;
      Vfs.Env.close env fd)

let test_pipe_device () =
  in_world (fun w ->
      let musca = P9net.World.host w "musca" in
      let eng = w.P9net.World.eng in
      let env = Vfs.Env.fork musca.P9net.Host.env in
      let fd0, fd1 = P9net.Pipedev.pipe eng env in
      ignore (Vfs.Env.write env fd0 "through the pipe");
      Alcotest.(check string) "one way" "through the pipe"
        (Vfs.Env.read env fd1 4096);
      ignore (Vfs.Env.write env fd1 "and back");
      Alcotest.(check string) "other way" "and back"
        (Vfs.Env.read env fd0 4096);
      (* a forked child inherits the descriptors *)
      let child = Vfs.Env.fork env in
      ignore
        (Sim.Proc.spawn eng (fun () ->
             ignore (Vfs.Env.write child fd0 "from the child");
             Vfs.Env.close child fd0;
             Vfs.Env.close child fd1));
      Alcotest.(check string) "child's message" "from the child"
        (Vfs.Env.read env fd1 4096);
      Vfs.Env.close env fd0;
      (* both references to end 0 are now closed: EOF *)
      Alcotest.(check string) "eof after close" ""
        (Vfs.Env.read env fd1 4096);
      Vfs.Env.close env fd1)

let test_pipe_device_independent_instances () =
  in_world (fun w ->
      let musca = P9net.World.host w "musca" in
      let eng = w.P9net.World.eng in
      let env = Vfs.Env.fork musca.P9net.Host.env in
      let a0, _a1 = P9net.Pipedev.pipe eng env in
      let _b0, b1 = P9net.Pipedev.pipe eng env in
      ignore (Vfs.Env.write env a0 "to pipe a");
      (* pipe b must not see pipe a's data: read would block, so check
         emptiness via a racing write instead *)
      ignore
        (Sim.Proc.spawn eng (fun () ->
             Sim.Time.sleep eng 0.05;
             ignore (Vfs.Env.write env _b0 "b data")));
      Alcotest.(check string) "instances are separate" "b data"
        (Vfs.Env.read env b1 4096))

let test_diagnostic_files () =
  in_world (fun w ->
      let musca = P9net.World.host w "musca" in
      let env = Vfs.Env.fork musca.P9net.Host.env in
      (* make some traffic so arp and counters are non-empty *)
      let conn = P9net.Dial.dial env "il!135.104.9.31!56" in
      ignore (Vfs.Env.write env conn.P9net.Dial.data_fd "x");
      ignore (Vfs.Env.read env conn.P9net.Dial.data_fd 10);
      P9net.Dial.hangup env conn;
      let arp = Vfs.Env.read_file env "/net/arp" in
      Alcotest.(check bool) "arp table shows helix" true
        (let contains hay needle =
           let nh = String.length hay and nn = String.length needle in
           let rec go i =
             i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
           in
           go 0
         in
         contains arp "135.104.9.31");
      let ifc = Vfs.Env.read_file env "/net/ipifc" in
      Alcotest.(check bool) "ipifc shows our address" true
        (String.length ifc > 0
        && String.sub ifc 0 17 = "addr 135.104.9.6 "))

(* ---- ls -l output like the paper's examples ---- *)

let test_ls_l_conn_dir () =
  in_world (fun w ->
      let helix = P9net.World.host w "helix" in
      let env = Vfs.Env.fork helix.P9net.Host.env in
      let fd = Vfs.Env.open_ env "/net/tcp/clone" F.Ordwr in
      let n = String.trim (Vfs.Env.read env fd 32) in
      let listing =
        Vfs.Env.ls env ("/net/tcp/" ^ n)
        |> List.map (fun d -> Format.asprintf "%a" F.pp_dir d)
      in
      (* shaped like: --rw-rw-rw- I 0 network network 0 ctl *)
      Alcotest.(check int) "seven files" 7 (List.length listing);
      List.iter
        (fun line ->
          Alcotest.(check bool) ("mode shape: " ^ line) true
            (String.length line > 20 && line.[0] = '-'))
        listing;
      Vfs.Env.close env fd)

(* ---- snoopy rendering (pure, no stacks) ---- *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* hand-built frames, byte for byte *)
let arp_request =
  let b = Bytes.make 28 '\000' in
  Bytes.set b 7 '\001';
  (* sha *)
  Bytes.blit_string "\x08\x00\x69\x02\x00\x01" 0 b 8 6;
  (* spa 10.0.0.1 *)
  Bytes.blit_string "\x0a\x00\x00\x01" 0 b 14 4;
  (* tpa 10.0.0.2 *)
  Bytes.blit_string "\x0a\x00\x00\x02" 0 b 24 4;
  Bytes.to_string b

let ip_header ~proto ~len =
  let b = Bytes.make (20 + len) '\000' in
  Bytes.set b 0 '\x45';
  Bytes.set b 9 (Char.chr proto);
  (* 10.0.0.1 > 10.0.0.2 *)
  Bytes.blit_string "\x0a\x00\x00\x01" 0 b 12 4;
  Bytes.blit_string "\x0a\x00\x00\x02" 0 b 16 4;
  b

let il_frame =
  let b = ip_header ~proto:40 ~len:18 in
  Bytes.set b (20 + 4) '\001';
  (* type 1 = data *)
  Bytes.set b (20 + 7) '\x05';
  (* sport 5 *)
  Bytes.set b (20 + 9) '\x09';
  (* dport 9 *)
  Bytes.set b (20 + 13) '\x07';
  (* id 7 *)
  Bytes.set b (20 + 17) '\x03';
  (* ack 3 *)
  Bytes.to_string b

let udp_frame =
  let b = ip_header ~proto:17 ~len:8 in
  Bytes.set b (20 + 1) '\x35';
  (* sport 53 *)
  Bytes.set b (20 + 3) '\x35';
  Bytes.to_string b

let test_snoopy_renders_frames () =
  let r etype payload =
    P9net.Snoop.render_frame ~time:0.5 ~src:"080069020001"
      ~dst:"ffffffffffff" ~etype payload
  in
  let arp = r 0x0806 arp_request in
  Alcotest.(check bool) "arp line" true
    (contains arp "arp who-has 10.0.0.2 tell 10.0.0.1");
  let il = r 0x0800 il_frame in
  Alcotest.(check bool) "il line" true
    (contains il "ip(10.0.0.1 > 10.0.0.2)" && contains il "il data 5>9");
  let udp = r 0x0800 udp_frame in
  Alcotest.(check bool) "udp line" true (contains udp "udp 53>53");
  Alcotest.(check string) "proto id: arp" "arp"
    (Netsim.Ether.frame_proto ~etype:0x0806 arp_request);
  Alcotest.(check string) "proto id: il" "il"
    (Netsim.Ether.frame_proto ~etype:0x0800 il_frame);
  Alcotest.(check string) "proto id: udp" "udp"
    (Netsim.Ether.frame_proto ~etype:0x0800 udp_frame)

let () =
  Alcotest.run "core"
    [
      ( "cs",
        [
          Alcotest.test_case "net!helix!9fs" `Quick test_cs_net_meta_name;
          Alcotest.test_case "net!$auth!rexauth" `Quick test_cs_meta_attr;
          Alcotest.test_case "literal address" `Quick test_cs_literal_address;
          Alcotest.test_case "symbolic = literal" `Quick
            test_cs_symbolic_equals_literal;
          Alcotest.test_case "unknown host" `Quick test_cs_unknown_host_fails;
          Alcotest.test_case "dk-only terminal" `Quick
            test_cs_dk_only_terminal;
          Alcotest.test_case "/net/cs file" `Quick test_cs_file_interface;
          Alcotest.test_case "dns fallback" `Quick test_cs_dns_fallback;
        ] );
      ( "netdev",
        [
          Alcotest.test_case "clone semantics" `Quick test_clone_semantics;
          Alcotest.test_case "conn dir files" `Quick test_conn_dir_files;
          Alcotest.test_case "status file" `Quick test_status_file;
          Alcotest.test_case "bad connect addr" `Quick
            test_ctl_connect_rejected_addr;
          Alcotest.test_case "paper transcript (2.3)" `Quick
            test_paper_transcript_cat_local_remote_status;
          Alcotest.test_case "udp via netdev" `Quick test_udp_via_netdev;
          Alcotest.test_case "hangup ends il reads" `Quick
            (test_hangup_ends_blocked_reads "il" 7401);
          Alcotest.test_case "hangup ends tcp reads" `Quick
            (test_hangup_ends_blocked_reads "tcp" 7402);
          Alcotest.test_case "hangup ends udp reads" `Quick
            (test_hangup_ends_blocked_reads "udp" 7403);
          Alcotest.test_case "dk reject reason" `Quick
            test_dk_reject_reason_via_files;
        ] );
      ( "dial",
        [
          Alcotest.test_case "echo via cs" `Quick test_echo_over_il;
          Alcotest.test_case "prefers il" `Quick
            test_dial_prefers_il_on_cpu_server;
          Alcotest.test_case "announce/listen/accept" `Quick
            test_announce_listen_accept;
          Alcotest.test_case "netmkaddr" `Quick test_netmkaddr;
        ] );
      ( "dns",
        [
          Alcotest.test_case "/net/dns file" `Quick test_dns_file;
          Alcotest.test_case "delegation + cache" `Quick
            test_dns_delegation_and_cache;
          Alcotest.test_case "negative" `Quick test_dns_negative;
        ] );
      ( "import",
        [
          Alcotest.test_case "unions /net" `Quick test_import_unions_net;
          Alcotest.test_case "gateway dial" `Quick
            test_import_gateway_dials_tcp;
          Alcotest.test_case "local supersedes" `Quick
            test_import_local_supersedes;
          Alcotest.test_case "read/write files" `Quick
            test_exportfs_read_write_files;
          Alcotest.test_case "remote cs" `Quick
            test_remote_cs_answers_with_its_networks;
          Alcotest.test_case "rename through import" `Quick
            test_rename_and_stat_through_import;
          Alcotest.test_case "cs requery" `Quick test_cs_requery_same_fd;
          Alcotest.test_case "read/write on every IP network" `Quick
            test_import_rw_every_network;
        ] );
      ( "snoopy",
        [
          Alcotest.test_case "renders frames" `Quick
            test_snoopy_renders_frames;
        ] );
      ( "ether",
        [
          Alcotest.test_case "figure 1 tree" `Quick test_ether_tree_figure1;
          Alcotest.test_case "snoop" `Quick test_ether_snoop;
          Alcotest.test_case "unread clone overflows" `Quick
            test_ether_overflow_counted;
          Alcotest.test_case "connection lifetime" `Quick
            test_ether_conn_lifetime;
        ] );
      ( "format",
        [ Alcotest.test_case "ls -l conn dir" `Quick test_ls_l_conn_dir ] );
      ( "diagnostics",
        [ Alcotest.test_case "arp and ipifc files" `Quick
            test_diagnostic_files ] );
      ( "pipedev",
        [
          Alcotest.test_case "pipe device" `Quick test_pipe_device;
          Alcotest.test_case "independent instances" `Quick
            test_pipe_device_independent_instances;
        ] );
    ]
