(* The scenario registry for schedule exploration (Sim.Explore).

   Each scenario is a closed, seed-free workload: it builds a fresh
   world under the tie-break policy the explorer hands it, runs to
   quiescence, and reports an observable transcript.  The explorer
   reruns every scenario under FIFO, seeded-shuffle, and adversarial
   schedules and requires the transcript (or, for schedule-dependent
   scenarios, the declared properties) to survive every legal same-time
   ordering.  Used by both `dune runtest` (test_explore) and the
   p9explore CLI / `make explore`.

   Conventions: every process a scenario owns carries an "sc:" marker in
   its name; those are the processes that must not be left stalled.
   Daemons of the standing world (listeners, servers) park
   themselves blocked by design and are exempt. *)

module E = Sim.Explore

let contains_marker n =
  let marker = "sc:" in
  let m = String.length marker and ln = String.length n in
  let rec find i = i + m <= ln && (String.sub n i m = marker || find (i + 1)) in
  find 0

let outcome eng tr buf ~finished ~crash =
  let stalled = List.filter contains_marker (Sim.Engine.stalled eng) in
  let crash =
    match crash with
    | Some _ as c -> c
    | None when (not finished) && stalled = [] ->
      Some "scenario body did not finish before the horizon"
    | None -> None
  in
  {
    E.o_transcript = Buffer.contents buf;
    o_stalled = stalled;
    o_crash = crash;
    o_counters = Obs.Metrics.counters (Obs.Trace.metrics tr);
    o_events = Sim.Engine.events eng;
  }

(* a raw-engine scenario: the body runs inside a process named sc:main
   on a bare engine, and may spawn more sc:-marked workers *)
let raw ?descr ?schedule_dependent ?check ?bounds ?(horizon = 240.0) name body
    =
  E.scenario name ?descr ?schedule_dependent ?check ?bounds
    (fun ~sched ~trace ->
      let eng = Sim.Engine.create ~sched () in
      let tr =
        match trace with
        | Some tr -> tr
        | None -> Obs.Trace.create ~capacity:512 ()
      in
      Sim.Engine.attach_obs eng tr;
      let buf = Buffer.create 256 in
      let say s =
        Buffer.add_string buf s;
        Buffer.add_char buf '\n'
      in
      let finished = ref false in
      let crash = ref None in
      ignore
        (Sim.Proc.spawn eng ~name:"sc:main" (fun () ->
             body eng say;
             finished := true));
      (try Sim.Engine.run ~until:horizon eng
       with e -> crash := Some (Printexc.to_string e));
      outcome eng tr buf ~finished:!finished ~crash:!crash)

(* a bell-labs-world scenario: the body runs as a user process on
   [from]; [prep] runs before any event fires (seed files, etc.) *)
let world ?descr ?schedule_dependent ?check ?bounds ?(horizon = 240.0)
    ?(from = "philw-gnot") ?prep name body =
  E.scenario name ?descr ?schedule_dependent ?check ?bounds
    (fun ~sched ~trace ->
      let w = P9net.World.bell_labs ~sched () in
      let eng = w.P9net.World.eng in
      let tr =
        match trace with
        | Some tr -> tr
        | None -> Obs.Trace.create ~capacity:512 ()
      in
      Sim.Engine.attach_obs eng tr;
      (match prep with Some f -> f w | None -> ());
      let buf = Buffer.create 256 in
      let say s =
        Buffer.add_string buf s;
        Buffer.add_char buf '\n'
      in
      let finished = ref false in
      let crash = ref None in
      let h = P9net.World.host w from in
      ignore
        (P9net.Host.spawn h "sc:main" (fun env ->
             (* let the world boot: every host's service daemons must
                have announced before a closed workload starts dialing,
                whatever order the t=0 batch ran in *)
             Sim.Time.sleep eng 1.0;
             body w env say;
             finished := true));
      (try P9net.World.run ~until:horizon w
       with e -> crash := Some (Printexc.to_string e));
      outcome eng tr buf ~finished:!finished ~crash:!crash)

(* ---- IL and TCP: connect / transfer / close through dial ---- *)

let echo_scenario name proto =
  world name ~from:"musca"
    ~descr:
      (Printf.sprintf "%s connect/transfer/close against helix's echo service"
         (String.uppercase_ascii proto))
    (fun _w env say ->
      let conn = P9net.Dial.dial env (Printf.sprintf "%s!helix!echo" proto) in
      for i = 1 to 4 do
        let msg = Printf.sprintf "%s ping %d" proto i in
        ignore (Vfs.Env.write env conn.P9net.Dial.data_fd msg);
        let reply = Vfs.Env.read env conn.P9net.Dial.data_fd 8192 in
        say (Printf.sprintf "reply %d: %s" i reply)
      done;
      P9net.Dial.hangup env conn;
      say "closed")

let il_echo = echo_scenario "il-echo" "il"
let tcp_echo = echo_scenario "tcp-echo" "tcp"

(* ---- ctl "hangup" ends a read blocked on the conversation ---- *)

(* Run from a process on musca against helix over [proto]: each end
   reads until it blocks, then the client's ctl and then the server's
   get "hangup".  Returns, for the client and then the server, what the
   blocked read returned and how long after that end's hangup (negative
   when the peer's close ended it first). *)
let hangup_readers w env proto ~port =
  let eng = w.P9net.World.eng in
  let helix = P9net.World.host w "helix" in
  let srv_dir = ref "" and srv = ref None and cli = ref None in
  let read_into env fd r =
    let got = Vfs.Env.read env fd 4096 in
    r := Some (got, Sim.Engine.now eng)
  in
  ignore
    (P9net.Host.spawn helix ("sc:server-" ^ proto) (fun henv ->
         let ann =
           P9net.Dial.announce henv (Printf.sprintf "%s!*!%d" proto port)
         in
         let conn = P9net.Dial.listen henv ann in
         let dfd = P9net.Dial.accept henv conn in
         srv_dir := conn.P9net.Dial.dir;
         ignore (Vfs.Env.read henv dfd 4096);
         read_into henv dfd srv));
  Sim.Time.sleep eng 0.1;
  let conn =
    P9net.Dial.dial env (Printf.sprintf "%s!135.104.9.31!%d" proto port)
  in
  (* the server accepts a UDP call only once a datagram arrives *)
  ignore (Vfs.Env.write env conn.P9net.Dial.data_fd "hello");
  ignore
    (Sim.Proc.spawn eng ~name:("sc:client-" ^ proto) (fun () ->
         read_into env conn.P9net.Dial.data_fd cli));
  Sim.Time.sleep eng 1.0;
  let hangup env ctl r =
    let t0 = Sim.Engine.now eng in
    ignore (Vfs.Env.write env ctl "hangup");
    Sim.Time.sleep eng 2.0;
    Option.map (fun (got, t) -> (got, t -. t0)) !r
  in
  let c = hangup env conn.P9net.Dial.ctl_fd cli in
  let henv = Vfs.Env.fork helix.P9net.Host.env in
  let sctl = Vfs.Env.open_ henv (!srv_dir ^ "/ctl") Ninep.Fcall.Owrite in
  let s = hangup henv sctl srv in
  Vfs.Env.close henv sctl;
  P9net.Dial.hangup env conn;
  (c, s)

let net_hangup =
  world "net-hangup" ~from:"musca"
    ~descr:"ctl hangup ends blocked reads on il, tcp and udp conversations"
    (fun w env say ->
      List.iteri
        (fun i proto ->
          let show = function
            | Some (got, dt) when dt <= 2.0 -> Printf.sprintf "%S" got
            | Some _ -> "late"
            | None -> "blocked"
          in
          let c, s = hangup_readers w env proto ~port:(7301 + i) in
          say (Printf.sprintf "%s: client %s server %s" proto (show c) (show s)))
        [ "il"; "tcp"; "udp" ])

(* ---- announce backlog: a full accept queue refuses cleanly ---- *)

let backlog =
  raw "backlog-refusal"
    ~descr:"three same-time callers against a backlog of two; one refused"
    (fun eng say ->
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
      let ila = Inet.Il.attach (mk 1 "10.0.0.1") in
      let ilb = Inet.Il.attach (mk 2 "10.0.0.2") in
      let lis = Inet.Il.announce ilb ~backlog:2 ~port:7 in
      let connected = ref 0 and refused = ref 0 in
      let client i delay =
        ignore
          (Sim.Proc.spawn eng ~name:(Printf.sprintf "sc:caller%d" i)
             (fun () ->
               Sim.Time.sleep eng delay;
               match
                 Inet.Il.connect ila
                   ~raddr:(Inet.Ipaddr.of_string "10.0.0.2") ~rport:7
               with
               | _ -> incr connected
               | exception Inet.Conv.Refused _ -> incr refused))
      in
      (* three callers land at the same instant, before anyone accepts;
         which one is refused is a schedule choice but the counts are
         not *)
      client 1 1.0;
      client 2 1.0;
      client 3 1.0;
      ignore
        (Sim.Proc.spawn eng ~name:"sc:server" (fun () ->
             Sim.Time.sleep eng 5.0;
             ignore (Inet.Conv.listen lis);
             ignore (Inet.Conv.listen lis);
             ignore (Inet.Conv.listen lis)));
      (* a late caller proves the listener was not wedged *)
      client 4 10.0;
      Sim.Time.sleep eng 30.0;
      say
        (Printf.sprintf "connected=%d refused=%d listener_refused=%d"
           !connected !refused (Inet.Conv.refused lis)))

(* ---- tcpcc under a synchronized close: bounded retransmission ---- *)

(* a miniature of the swarm bench's congestion collapse: eight tcpcc
   conversations on a slow (1 Mb/s) wire all fire a 4 KiB echo at the
   same instant.  The queueing delay pushes past the minimum RTO, so
   some retransmission is expected — the invariant is that congestion
   control keeps it bounded under every schedule, where the baseline's
   go-back-N storm would run away (that divergence is pinned by the
   congestion bench, not here).  Which conversation finishes first is a
   schedule choice; the transcript carries only the completion count. *)
let tcpcc_collapse_convs = 8

let tcpcc_collapse =
  raw "tcpcc-collapse"
    ~descr:"eight synchronized tcpcc echo bursts on a 1 Mb/s wire"
    ~bounds:
      [ { E.b_counter = "tcpcc.retransmits"; b_min = 0; b_max = 1000 } ]
    (fun eng say ->
      let seg = Netsim.Ether.create ~bandwidth_bps:1e6 ~name:"e0" eng in
      let mk n addr =
        let nic =
          Netsim.Ether.attach seg
            (Netsim.Eaddr.of_string (Printf.sprintf "08006902%04x" n))
        in
        let port = Inet.Etherport.create eng nic in
        Inet.Tcp.attach_cc
          (Inet.Ip.create
             ~addr:(Inet.Ipaddr.of_string addr)
             ~mask:(Inet.Ipaddr.of_string "255.255.255.0")
             port)
      in
      let cca = mk 1 "10.0.0.1" in
      let ccb = mk 2 "10.0.0.2" in
      let lis = Inet.Conv.announce ccb ~backlog:tcpcc_collapse_convs ~port:7 in
      for i = 1 to tcpcc_collapse_convs do
        ignore
          (Sim.Proc.spawn eng
             ~name:(Printf.sprintf "sc:echo%d" i)
             (fun () ->
               let conv = Inet.Conv.listen lis in
               let rec go () =
                 let s = Inet.Tcp.read conv 8192 in
                 if s <> "" then begin
                   Inet.Tcp.write conv s;
                   go ()
                 end
               in
               go ()))
      done;
      let completed = ref 0 in
      let payload = String.make 4096 'c' in
      for i = 1 to tcpcc_collapse_convs do
        ignore
          (Sim.Proc.spawn eng
             ~name:(Printf.sprintf "sc:burst%d" i)
             (fun () ->
               (* stagger the dials; the echo bursts are synchronized *)
               Sim.Time.sleep eng (0.1 *. float_of_int i);
               let conv =
                 Inet.Conv.connect cca ~raddr:(Inet.Ipaddr.of_string "10.0.0.2")
                   ~rport:7
               in
               Sim.Time.sleep eng (5.0 -. Sim.Engine.now eng);
               Inet.Tcp.write conv payload;
               let got = ref 0 in
               while !got < String.length payload do
                 let s = Inet.Tcp.read conv 8192 in
                 if s = "" then failwith "echo cut short"
                 else got := !got + String.length s
               done;
               Inet.Tcp.close conv;
               incr completed;
               if !completed = tcpcc_collapse_convs then
                 say
                   (Printf.sprintf "completed=%d retransmits bounded"
                      !completed)))
      done)

(* ---- the fid audit ---- *)

(* [fs] and the number of nodes its server holds: attached, cloned or
   clwalked, and not yet clunked or removed — the server's side of the
   peer client's [Ninep.Client.open_fids] *)
let counted fs =
  let held = ref 0 in
  let took r =
    if Result.is_ok r then incr held;
    r
  in
  ( {
      fs with
      Ninep.Server.fs_attach =
        (fun ~uname ~aname -> took (fs.Ninep.Server.fs_attach ~uname ~aname));
      fs_clone = (fun n -> took (fs.fs_clone n));
      fs_clwalk = (fun n name -> took (fs.fs_clwalk n name));
      fs_clunk =
        (fun n ->
          decr held;
          fs.fs_clunk n);
      fs_remove =
        (fun n ->
          decr held;
          fs.fs_remove n);
    },
    held )

(* The end-of-run audit: the body's "open fids: N" line must show only
   the [held] fids that live channels still hold — a walk that leaks a
   fid per step fails here under every schedule. *)
let fid_audit ~held o =
  let prefix = "open fids: " in
  let want = prefix ^ string_of_int held in
  let lines = String.split_on_char '\n' o.E.o_transcript in
  if List.mem want lines then Ok ()
  else
    match List.find_opt (String.starts_with ~prefix) lines with
    | Some l ->
      Error (Printf.sprintf "fid leak: %s, live channels hold %d" l held)
    | None -> Error "no fid count in the transcript"

(* ---- 9P over a mount: walk / read / write / remove ---- *)

let ninep_mount =
  raw "9p-mount" ~descr:"mount a served ramfs and walk/read/write through it"
    ~check:(fid_audit ~held:1)
    (fun eng say ->
      let local = Ninep.Ramfs.make ~name:"root" () in
      Ninep.Ramfs.mkdir local "/mnt";
      let remote = Ninep.Ramfs.make ~name:"remote" () in
      Ninep.Ramfs.mkdir remote "/sub";
      Ninep.Ramfs.add_file remote "/sub/greeting" "hello from the server";
      let ct, st = Ninep.Transport.pipe eng in
      let _srv = Ninep.Server.serve eng (Ninep.Ramfs.fs remote) st in
      let ns = Vfs.Ns.make ~root:(Ninep.Ramfs.fs local) ~uname:"u" in
      let env = Vfs.Env.make ~ns ~uname:"u" in
      let client = Ninep.Client.make eng ct in
      Ninep.Client.session client;
      Vfs.Env.mount env client ~onto:"/mnt" Vfs.Ns.Repl;
      say (Printf.sprintf "read: %s" (Vfs.Env.read_file env "/mnt/sub/greeting"));
      Vfs.Env.write_file env "/mnt/sub/out" "written through the mount";
      say (Printf.sprintf "readback: %s" (Vfs.Env.read_file env "/mnt/sub/out"));
      let names =
        List.map (fun d -> d.Ninep.Fcall.d_name) (Vfs.Env.ls env "/mnt/sub")
      in
      say (Printf.sprintf "ls: %s" (String.concat "," (List.sort compare names)));
      Vfs.Env.remove env "/mnt/sub/out";
      say
        (Printf.sprintf "removed: %b"
           (match Vfs.Env.stat env "/mnt/sub/out" with
           | _ -> false
           | exception Vfs.Chan.Error _ -> true));
      (* the mount table's attach root is the one fid left *)
      say (Printf.sprintf "open fids: %d" (Ninep.Client.open_fids client)))

(* ---- threaded 9P: a Tflush the instant its victim's read ends ---- *)

(* Whether the read's reply or the flush lands first is the schedule's
   choice; either way Rflush is final: no R under tag 5 may follow it. *)
let flush_race_check o =
  let rec go flushed = function
    | [] -> Ok ()
    | "R6 flush" :: rest -> go true rest
    | "R5 read" :: _ when flushed -> Error "R5 after the Rflush that flushed it"
    | _ :: rest -> go flushed rest
  in
  go false (String.split_on_char '\n' o.E.o_transcript)

let ninep_flush_race =
  raw "9p-flush-race" ~schedule_dependent:true ~check:flush_race_check
    ~descr:"threaded server: a Tflush lands the instant its victim's read ends"
    (fun eng say ->
      let module F = Ninep.Fcall in
      let qid = { F.qpath = 1; qvers = 0 } in
      let fs =
        {
          Ninep.Server.fs_name = "slowfs";
          fs_attach = (fun ~uname:_ ~aname:_ -> Ok ());
          fs_qid = (fun () -> qid);
          fs_walk = (fun () _ -> Ok ());
          fs_open = (fun () _ ~trunc:_ -> Ok ());
          fs_read =
            (fun () ~offset:_ ~count:_ ->
              Sim.Time.sleep eng 1.0;
              Ok "done");
          fs_write = (fun () ~offset:_ ~data -> Ok (String.length data));
          fs_create = (fun () ~name:_ ~perm:_ _ -> Error "no");
          fs_remove = (fun () -> Error "no");
          fs_stat = (fun () -> Error "no");
          fs_wstat = (fun () _ -> Error "no");
          fs_clunk = ignore;
          fs_clone = Result.ok;
          fs_clwalk = (fun () _ -> Ok ());
        }
      in
      let ct, st = Ninep.Transport.pipe eng in
      let _srv = Ninep.Server.serve ~threaded:true eng fs st in
      let send tag t = ct.Ninep.Transport.t_send (F.encode (F.T (tag, t))) in
      let _recorder =
        Sim.Proc.spawn eng ~name:"sc:recorder" (fun () ->
            let rec loop () =
              match ct.Ninep.Transport.t_recv () with
              | None -> ()
              | Some raw ->
                (match F.decode raw with
                | F.R (tag, r) ->
                  let kind =
                    match r with
                    | F.Rattach _ -> "attach"
                    | F.Ropen _ -> "open"
                    | F.Rread _ -> "read"
                    | F.Rflush -> "flush"
                    | _ -> "other"
                  in
                  say (Printf.sprintf "R%d %s" tag kind)
                | F.T _ -> ());
                loop ()
            in
            loop ())
      in
      send 1 (F.Tattach { fid = 1; uname = "u"; aname = "" });
      send 2 (F.Topen { fid = 1; mode = F.Oread; trunc = false });
      Sim.Time.sleep eng 0.1;
      send 5 (F.Tread { fid = 1; offset = 0L; count = 10 });
      (* the read's sleep ends at exactly this instant *)
      Sim.Time.sleep eng 1.0;
      send 6 (F.Tflush { oldtag = 5 });
      Sim.Time.sleep eng 5.0;
      ct.Ninep.Transport.t_close ())

(* ---- cfs: coherence across a foreign write ---- *)

let cfs_coherence =
  raw "cfs-coherence"
    ~descr:"cached read, foreign rewrite behind the cache, fresh reopen"
    ~check:(fid_audit ~held:0)
    (fun eng say ->
      let ram = Ninep.Ramfs.make ~name:"ram" () in
      Ninep.Ramfs.add_file ram "/f" "old contents";
      let up_ct, up_st = Ninep.Transport.pipe eng in
      let up_fs, up_held = counted (Ninep.Ramfs.fs ram) in
      let _srv = Ninep.Server.serve eng up_fs up_st in
      let cache = Cfs.make eng ~upstream:up_ct () in
      let foreign_ct, foreign_st = Ninep.Transport.pipe eng in
      let _srv2 = Ninep.Server.serve eng (Ninep.Ramfs.fs ram) foreign_st in
      let c = Ninep.Client.make eng (Cfs.transport cache) in
      Ninep.Client.session c;
      let fc = Ninep.Client.make eng foreign_ct in
      Ninep.Client.session fc;
      let open_file cl path mode =
        let root = Ninep.Client.attach cl ~uname:"u" ~aname:"" in
        let fid =
          Ninep.Client.walk_path cl root
            (List.filter (fun s -> s <> "") (String.split_on_char '/' path))
        in
        ignore (Ninep.Client.open_ cl fid mode);
        Ninep.Client.clunk cl root;
        fid
      in
      let fid = open_file c "/f" Ninep.Fcall.Oread in
      say (Printf.sprintf "cold: %s" (Ninep.Client.read_all c fid));
      Ninep.Client.clunk c fid;
      (* someone else rewrites the file behind the cache's back *)
      let wfid = open_file fc "/f" Ninep.Fcall.Owrite in
      ignore (Ninep.Client.write fc wfid ~offset:0L "NEW contents");
      Ninep.Client.clunk fc wfid;
      let fid2 = open_file c "/f" Ninep.Fcall.Oread in
      say (Printf.sprintf "fresh: %s" (Ninep.Client.read_all c fid2));
      say
        (Printf.sprintf "invalidated: %b"
           (Cfs.counter cache "invalidations" > 0));
      Ninep.Client.clunk c fid2;
      (* a Tclwalk that misses gives its upstream clone back *)
      let root = Ninep.Client.attach c ~uname:"u" ~aname:"" in
      (match Ninep.Client.walk_path c root [ "nope" ] with
      | fid ->
        Ninep.Client.clunk c fid;
        say "missing file: unexpectedly found"
      | exception Ninep.Client.Err _ -> say "missing file: clean error");
      Ninep.Client.clunk c root;
      (* every downstream fid is clunked, so the cache's mount client
         holds nothing upstream *)
      say (Printf.sprintf "open fids: %d" !up_held))

(* ---- URP over Datakit ---- *)

let urp_dk =
  raw "urp-dk" ~descr:"URP message echo across the Datakit switch"
    (fun eng say ->
      let sw = Dk.Switch.create ~name:"dk" eng in
      let helix = Dk.Switch.attach sw ~name:"nj/astro/helix" in
      let gnot = Dk.Switch.attach sw ~name:"nj/astro/gnot" in
      ignore
        (Sim.Proc.spawn eng ~name:"sc:urp-server" (fun () ->
             let calls = Dk.Circuit.announce helix ~service:"urp" in
             let inc = Sim.Mbox.recv calls in
             let conv = Dk.Urp.over (Dk.Circuit.accept inc) in
             let rec go () =
               match Dk.Urp.read_msg conv with
               | Some m ->
                 Dk.Urp.write conv ("re:" ^ m);
                 go ()
               | None -> ()
             in
             go ()));
      (* let the server's announce land before placing the call *)
      Sim.Time.sleep eng 0.5;
      let circ = Dk.Circuit.dial gnot ~dest:"nj/astro/helix" ~service:"urp" in
      let conv = Dk.Urp.over circ in
      List.iter
        (fun m ->
          Dk.Urp.write conv m;
          match Dk.Urp.read_msg conv with
          | Some r -> say (Printf.sprintf "echo: %s" r)
          | None -> say "echo: EOF")
        [ "one"; "two"; String.make 5000 'x' ];
      Dk.Urp.close conv;
      say "closed")

(* ---- exportfs round trip, over the Datakit gateway host ---- *)

let exportfs_rt =
  world "exportfs" ~from:"philw-gnot"
    ~descr:"import a helix tree over URP/dk; write, read back, remove"
    ~prep:(fun w ->
      Ninep.Ramfs.mkdir (P9net.World.host w "helix").P9net.Host.root "/tmp/sc")
    (fun w env say ->
      P9net.Exportfs.import w.P9net.World.eng env ~host:"helix"
        ~remote_root:"/tmp/sc" ~onto:"/n" ~flag:Vfs.Ns.Repl ();
      Vfs.Env.write_file env "/n/hello" "hello from gnot";
      say (Printf.sprintf "readback: %s" (Vfs.Env.read_file env "/n/hello"));
      let names =
        List.map (fun d -> d.Ninep.Fcall.d_name) (Vfs.Env.ls env "/n")
      in
      say (Printf.sprintf "ls: %s" (String.concat "," (List.sort compare names)));
      Vfs.Env.remove env "/n/hello";
      say
        (Printf.sprintf "removed: %b"
           (match Vfs.Env.stat env "/n/hello" with
           | _ -> false
           | exception Vfs.Chan.Error _ -> true)))

(* ---- a 9P import across a routed internet, partition mid-read ---- *)

(* client subnet — gwa — transit segment "mid" — gwb — server subnet:
   the import crosses two gateway hops; partitioning the transit wire
   mid-use must surface as a clean channel error, and a redial after
   the window heals must work *)
let routed_import_ndb =
  {|ipnet=leafc ip=10.1.0.0 ipmask=255.255.0.0
	ipgw=10.1.0.1
ipnet=mid ip=10.2.0.0 ipmask=255.255.0.0
ipnet=leafs ip=10.3.0.0 ipmask=255.255.0.0
	ipgw=10.3.0.1
sys=gwa
	ip=10.1.0.1 ether=0800ab000001
	ip=10.2.0.1 ether=0800ab000002
sys=gwb
	ip=10.3.0.1 ether=0800ab000003
	ip=10.2.0.2 ether=0800ab000004
sys=rsrv
	ip=10.3.0.9 ether=0800ab000005
sys=rcli
	ip=10.1.0.9 ether=0800ab000006
il=echo	port=56
il=exportfs	port=17007
tcp=exportfs	port=17007
|}

let routed_import =
  E.scenario "routed-import"
    ~descr:
      "9P import across two gateway hops; the transit segment partitions \
       mid-read, errors cleanly, redial works after heal"
    (fun ~sched ~trace ->
      let db = Ndb.of_string routed_import_ndb in
      let w = P9net.World.routed ~sched ~db () in
      let eng = w.P9net.World.eng in
      let tr =
        match trace with
        | Some tr -> tr
        | None -> Obs.Trace.create ~capacity:512 ()
      in
      Sim.Engine.attach_obs eng tr;
      List.iter
        (fun n -> ignore (P9net.World.add_host w n))
        [ "gwa"; "gwb"; "rsrv" ];
      let rcli = P9net.World.add_host w "rcli" in
      P9net.World.autoroute w;
      let rsrv = P9net.World.host w "rsrv" in
      Ninep.Ramfs.mkdir rsrv.P9net.Host.root "/tmp/sc";
      Ninep.Ramfs.add_file rsrv.P9net.Host.root "/tmp/sc/motd" "routed hello";
      P9net.Host.serve_exportfs rsrv;
      let buf = Buffer.create 256 in
      let say s =
        Buffer.add_string buf s;
        Buffer.add_char buf '\n'
      in
      let finished = ref false in
      let crash = ref None in
      ignore
        (P9net.Host.spawn rcli "sc:main" (fun env ->
             Sim.Time.sleep eng 1.0;
             P9net.Exportfs.import eng env ~host:"rsrv" ~remote_root:"/tmp/sc"
               ~onto:"/n" ~flag:Vfs.Ns.Repl ();
             say (Printf.sprintf "read: %s" (Vfs.Env.read_file env "/n/motd"));
             let now = Sim.Engine.now eng in
             Netsim.Fault.partition
               (P9net.World.segment_faults w "mid")
               ~from_:now ~until:(now +. 60.);
             (match Vfs.Env.read_file env "/n/motd" with
             | _ -> say "partition read: unexpectedly succeeded"
             | exception Vfs.Chan.Error _ -> say "partition read: clean error");
             (* the transit is still down: keep dialing until it heals *)
             let conn =
               P9net.Dial.redial env ~tries:40
                 ~pause:(fun () -> Sim.Time.sleep eng 5.0)
                 "il!rsrv!exportfs"
             in
             P9net.Dial.hangup env conn;
             Ninep.Ramfs.mkdir rcli.P9net.Host.root "/n2";
             P9net.Exportfs.import eng env ~host:"rsrv" ~remote_root:"/tmp/sc"
               ~onto:"/n2" ~flag:Vfs.Ns.Repl ();
             say
               (Printf.sprintf "reimport read: %s"
                  (Vfs.Env.read_file env "/n2/motd"));
             finished := true));
      (try P9net.World.run ~until:600.0 w
       with e -> crash := Some (Printexc.to_string e));
      outcome eng tr buf ~finished:!finished ~crash:!crash)

(* ---- streams under backpressure: every blocked writer must drain ---- *)

(* Two writers block on a full stream queue; the consumer drains the
   whole backlog in one read.  Both writers must complete — a queue
   that wakes exactly one writer per take strands the other. *)
let stream_backpressure =
  raw "stream-backpressure"
    ~descr:"two writers blocked on a full stream; one big drain frees both"
    (fun eng say ->
      let a, b = Streams.Pipe.create ~qlimit:1024 eng in
      (* fill b's read queue past its limit so later writers block *)
      Streams.write a (String.make 1200 'f');
      let writer id delay =
        ignore
          (Sim.Proc.spawn eng
             ~name:(Printf.sprintf "sc:w%d" id)
             (fun () ->
               Sim.Time.sleep eng delay;
               Streams.write a (String.make 100 (Char.chr (Char.code '0' + id)));
               say (Printf.sprintf "writer %d done" id)))
      in
      writer 1 0.5;
      writer 2 0.6;
      ignore
        (Sim.Proc.spawn eng ~name:"sc:consumer" (fun () ->
             Sim.Time.sleep eng 1.0;
             let data = Streams.read b 4096 in
             say (Printf.sprintf "drained %d bytes" (String.length data)))))

(* One 200-byte delimited message, two 100-byte readers blocked before
   it lands.  The first reader stops at its byte count, leaving half the
   block queued — the second must still be woken to take it. *)
let stream_read_cascade =
  raw "stream-read-cascade"
    ~descr:"two byte-readers split one delimited message"
    (fun eng say ->
      let a, b = Streams.Pipe.create eng in
      let reader id delay =
        ignore
          (Sim.Proc.spawn eng
             ~name:(Printf.sprintf "sc:r%d" id)
             (fun () ->
               Sim.Time.sleep eng delay;
               let data = Streams.read b 100 in
               say (Printf.sprintf "reader %d got %d bytes" id
                      (String.length data))))
      in
      reader 1 0.5;
      reader 2 0.6;
      ignore
        (Sim.Proc.spawn eng ~name:"sc:producer" (fun () ->
             Sim.Time.sleep eng 1.0;
             Streams.write a (String.make 200 'm');
             say "wrote 200")))

(* ---- the queue race: the planted-bug detector's hunting ground ---- *)

(* Per round: R1 is already asleep on the queue; a producer that pushes
   two blocks back-to-back (no suspension between the puts) and a second
   reader land at the same instant.  Whichever order the schedule picks,
   both blocks must reach a reader.  With Block.Q.chaos_lost_wakeup
   planted, any schedule that runs R2 before the producer strands R2
   forever: R2 parks, put #1 wakes R1 (the longer sleeper), put #2 hits
   a non-empty queue and skips the wakeup R2 needed.  FIFO never picks
   that order here (the producer's timer was armed first), so the
   planted bug is invisible to the historical schedule — adversarial
   LIFO hits it deterministically and shuffles hit it with probability
   1/2 per round.  Which reader gets which block IS a schedule choice,
   so the transcript is declared schedule-dependent and the property
   checked is "everyone ate". *)
let queue_race_rounds = 4

let queue_race =
  raw "queue-race" ~schedule_dependent:true
    ~descr:"two readers race two same-time producers per round"
    ~check:(fun o ->
      let lines =
        List.filter (fun l -> l <> "")
          (String.split_on_char '\n' o.E.o_transcript)
      in
      let want = 2 * queue_race_rounds in
      if List.length lines = want then Ok ()
      else
        Error
          (Printf.sprintf "expected %d deliveries, saw %d" want
             (List.length lines)))
    (fun eng say ->
      for round = 1 to queue_race_rounds do
        let t = float_of_int round in
        let q =
          Block.Q.create ~name:(Printf.sprintf "race%d" round) eng
        in
        let reader id delays =
          ignore
            (Sim.Proc.spawn eng
               ~name:(Printf.sprintf "sc:r%d.%d" id round)
               (fun () ->
                 List.iter (Sim.Time.sleep eng) delays;
                 match Block.Q.get q with
                 | Some b ->
                   say
                     (Printf.sprintf "round %d: reader %d got %d bytes"
                        round id (Block.len b))
                 | None ->
                   say (Printf.sprintf "round %d: reader %d got EOF" round id)))
        in
        reader 1 [ t -. 0.5 ];
        (* R1 parks early *)
        ignore
          (Sim.Proc.spawn eng
             ~name:(Printf.sprintf "sc:p.%d" round)
             (fun () ->
               Sim.Time.sleep eng t;
               (* two puts with no suspension point in between *)
               Block.Q.put q (Block.make ~delim:true (String.make 16 'x'));
               Block.Q.put q (Block.make ~delim:true (String.make 24 'y'))));
        (* R2 reaches t in two hops so its final timer is armed at
           t -. 0.2 — strictly after the producer's, whatever order the
           t=0 batch ran in.  LIFO therefore always runs R2 first (the
           stranding order); FIFO always runs the producer first. *)
        reader 2 [ t -. 0.2; 0.2 ]
      done)

(* ---- distributed namespaces: import chains and union mounts ---- *)

(* a cluster-world scenario: n identical hosts c0..c(n-1) on one flat
   subnet, every one serving exportfs; the body runs as a user process
   on c0.  The horizon is generous — partition scenarios sleep through
   IL death timers and staged re-imports. *)
let cluster_sc ?descr ?schedule_dependent ?check ?bounds ?(horizon = 600.0)
    ?(n = 4) ?prep name body =
  E.scenario name ?descr ?schedule_dependent ?check ?bounds
    (fun ~sched ~trace ->
      let w = P9net.World.cluster ~sched ~n () in
      let eng = w.P9net.World.eng in
      let tr =
        match trace with
        | Some tr -> tr
        | None -> Obs.Trace.create ~capacity:512 ()
      in
      Sim.Engine.attach_obs eng tr;
      (match prep with Some f -> f w | None -> ());
      let buf = Buffer.create 256 in
      let say s =
        Buffer.add_string buf s;
        Buffer.add_char buf '\n'
      in
      let finished = ref false in
      let crash = ref None in
      let h = P9net.World.host w "c0" in
      ignore
        (P9net.Host.spawn h "sc:main" (fun env ->
             Sim.Time.sleep eng 1.0;
             body w env say;
             finished := true));
      (try P9net.World.run ~until:horizon w
       with e -> crash := Some (Printexc.to_string e));
      outcome eng tr buf ~finished:!finished ~crash:!crash)

(* Build the base-env import chain c1 → c2 → … → c[last]: each c(i)
   mounts c(i+1)'s root onto its /n/next.  Deepest import first, and
   strictly sequentially, because a listener forks its host's name
   space per connection {e at connect time} — c1's exportfs can only
   re-export c2's tree to connections made after c1's own import
   landed.  Runs in the calling process's context (imports are RPCs). *)
let chain_imports w ~last =
  let eng = w.P9net.World.eng in
  for i = last - 1 downto 1 do
    let h = P9net.World.host w (Printf.sprintf "c%d" i) in
    P9net.Exportfs.import eng h.P9net.Host.env
      ~host:(Printf.sprintf "c%d" (i + 1))
      ~remote_root:"/" ~onto:"/n/next" ~flag:Vfs.Ns.Repl ()
  done

(* an import that keeps trying while the network heals *)
let rec import_retry eng env ~host ~remote_root ~onto ~flag ~tries =
  match P9net.Exportfs.import eng env ~host ~remote_root ~onto ~flag () with
  | () -> ()
  | exception
      ( P9net.Dial.Dial_error _ | Vfs.Chan.Error _ | Ninep.Client.Err _ )
    when tries > 1 ->
    Sim.Time.sleep eng 5.0;
    import_retry eng env ~host ~remote_root ~onto ~flag ~tries:(tries - 1)

let sorted_names ls =
  String.concat ","
    (List.sort compare (List.map (fun d -> d.Ninep.Fcall.d_name) ls))

(* One Tread from c0 fans out over three 9P connections: c0's mount of
   c1, c1's re-export of its mount of c2, c2's of c3.  Partitioning the
   middle host must surface at the head as a clean channel error while
   the surviving hop keeps serving; the chain is then rebuilt bottom-up
   and the head re-imports. *)
let chain_partition =
  cluster_sc "chain-partition-mid-walk" ~n:4
    ~descr:
      "3-hop import chain; the middle host partitions mid-use, errors \
       cleanly at the head, staged re-import heals"
    ~prep:(fun w ->
      Ninep.Ramfs.mkdir (P9net.World.host w "c0").P9net.Host.root "/n2")
    (fun w env say ->
      let eng = w.P9net.World.eng in
      chain_imports w ~last:3;
      P9net.Exportfs.import eng env ~host:"c1" ~remote_root:"/"
        ~onto:"/n/next" ~flag:Vfs.Ns.Repl ();
      let deep = "/n/next/n/next/n/next/srv/c3" in
      say
        (Printf.sprintf "read c1: %s"
           (String.trim (Vfs.Env.read_file env "/n/next/srv/c1")));
      say
        (Printf.sprintf "read c3: %s" (String.trim (Vfs.Env.read_file env deep)));
      let now = Sim.Engine.now eng in
      Netsim.Fault.partition
        (P9net.World.host_faults w "c2")
        ~from_:now ~until:(now +. 60.);
      (match Vfs.Env.read_file env deep with
      | _ -> say "partition read: unexpectedly succeeded"
      | exception Vfs.Chan.Error _ -> say "partition read: clean error");
      (* the c0 ↔ c1 connection must have survived the c2 outage *)
      say
        (Printf.sprintf "c1 still serves: %s"
           (String.trim (Vfs.Env.read_file env "/n/next/srv/c1")));
      (* staged heal: rebuild bottom-up, then re-import at the head (the
         old per-connection forks upstream still hold the dead mounts,
         so the head needs a fresh connection to see the fresh chain) *)
      let c2 = P9net.World.host w "c2" in
      import_retry eng c2.P9net.Host.env ~host:"c3" ~remote_root:"/"
        ~onto:"/n/next" ~flag:Vfs.Ns.Repl ~tries:40;
      let c1 = P9net.World.host w "c1" in
      import_retry eng c1.P9net.Host.env ~host:"c2" ~remote_root:"/"
        ~onto:"/n/next" ~flag:Vfs.Ns.Repl ~tries:40;
      import_retry eng env ~host:"c1" ~remote_root:"/" ~onto:"/n2"
        ~flag:Vfs.Ns.Repl ~tries:40;
      say
        (Printf.sprintf "reimport read c3: %s"
           (String.trim (Vfs.Env.read_file env "/n2/n/next/n/next/srv/c3"))))

(* the same chain under a flapping (not severed) middle link: every
   read either completes or fails cleanly — which of the two is a
   schedule choice — and after the flap window a rebuilt chain must
   serve again *)
let chain_flap =
  cluster_sc "chain-flap-during-tread" ~n:3 ~schedule_dependent:true
    ~descr:
      "reads down a 2-hop chain while the middle host's link flaps; \
       failures stay clean, the post-heal read succeeds"
    ~check:(fun o ->
      let lines = String.split_on_char '\n' o.E.o_transcript in
      if List.mem "final read: c2" lines then Ok ()
      else Error "post-heal read missing from transcript")
    ~prep:(fun w ->
      Ninep.Ramfs.mkdir (P9net.World.host w "c0").P9net.Host.root "/n2")
    (fun w env say ->
      let eng = w.P9net.World.eng in
      chain_imports w ~last:2;
      P9net.Exportfs.import eng env ~host:"c1" ~remote_root:"/"
        ~onto:"/n/next" ~flag:Vfs.Ns.Repl ();
      let deep = "/n/next/n/next/srv/c2" in
      say (Printf.sprintf "read: %s" (String.trim (Vfs.Env.read_file env deep)));
      let now = Sim.Engine.now eng in
      Netsim.Fault.flap
        (P9net.World.host_faults w "c1")
        ~from_:now ~until:(now +. 30.) ~period:5.0 ~down:0.4;
      let done_ = ref 0 in
      for _ = 1 to 6 do
        (match Vfs.Env.read_file env deep with
        | s when String.trim s = "c2" -> incr done_
        | _ -> ()
        | exception Vfs.Chan.Error _ -> incr done_);
        Sim.Time.sleep eng 5.0
      done;
      say (Printf.sprintf "flap reads resolved: %b" (!done_ = 6));
      (* rebuild whatever the flap killed; c0 then reads through a
         fresh connection *)
      let c1 = P9net.World.host w "c1" in
      import_retry eng c1.P9net.Host.env ~host:"c2" ~remote_root:"/"
        ~onto:"/n/next" ~flag:Vfs.Ns.Repl ~tries:40;
      import_retry eng env ~host:"c1" ~remote_root:"/" ~onto:"/n2"
        ~flag:Vfs.Ns.Repl ~tries:40;
      say
        (Printf.sprintf "final read: %s"
           (String.trim (Vfs.Env.read_file env "/n2/n/next/srv/c2"))))

(* A union of three remote /srv trees loses its middle member: walks
   must fall through past the dead mount to the survivors, listings
   must skip it, and after heal a rebuilt union is whole again.  The
   fall-through assertion ("read c3: c3") is an explicit check, not
   just a transcript comparison: the planted chaos_union_lost_walk bug
   is schedule-INdependent, so a FIFO baseline would be equally wrong
   under every policy and only a semantic property can convict it. *)
let union_member_dies =
  cluster_sc "union-member-dies-walk-continues" ~n:4
    ~descr:
      "a 3-member union loses one server; walks fall through, listings \
       skip it, re-import makes the union whole"
    ~check:(fun o ->
      let lines = String.split_on_char '\n' o.E.o_transcript in
      if List.mem "read c3: c3" lines then Ok ()
      else Error "union walk did not fall through past the dead member")
    (fun w env say ->
      let eng = w.P9net.World.eng in
      let imp host flag =
        P9net.Exportfs.import eng env ~host ~remote_root:"/srv" ~onto:"/u"
          ~flag ()
      in
      imp "c1" Vfs.Ns.Repl;
      imp "c2" Vfs.Ns.After;
      imp "c3" Vfs.Ns.After;
      say (Printf.sprintf "ls: %s" (sorted_names (Vfs.Env.ls env "/u")));
      say
        (Printf.sprintf "read c2: %s"
           (String.trim (Vfs.Env.read_file env "/u/c2")));
      let now = Sim.Engine.now eng in
      Netsim.Fault.partition
        (P9net.World.host_faults w "c2")
        ~from_:now ~until:(now +. 60.);
      (match Vfs.Env.read_file env "/u/c2" with
      | _ -> say "dead read: unexpectedly succeeded"
      | exception Vfs.Chan.Error _ -> say "dead read: clean error");
      say
        (Printf.sprintf "ls skips dead: %s"
           (sorted_names (Vfs.Env.ls env "/u")));
      say
        (Printf.sprintf "read c3: %s"
           (String.trim (Vfs.Env.read_file env "/u/c3")));
      (* heal: drop the whole union, re-import all three members *)
      Vfs.Env.unmount env ~onto:"/u";
      import_retry eng env ~host:"c1" ~remote_root:"/srv" ~onto:"/u"
        ~flag:Vfs.Ns.Repl ~tries:40;
      import_retry eng env ~host:"c2" ~remote_root:"/srv" ~onto:"/u"
        ~flag:Vfs.Ns.After ~tries:40;
      import_retry eng env ~host:"c3" ~remote_root:"/srv" ~onto:"/u"
        ~flag:Vfs.Ns.After ~tries:40;
      say
        (Printf.sprintf "healed read c2: %s"
           (String.trim (Vfs.Env.read_file env "/u/c2"))))

(* create through a union: the paper's bind -c.  The first member
   mounted with MCREATE receives the new file; a union with no such
   member refuses with the kernel's error *)
let union_create =
  cluster_sc "union-create-routing" ~n:4
    ~descr:
      "create lands on the first mcreate member of a union; an \
       all-frozen union refuses cleanly"
    ~prep:(fun w ->
      Ninep.Ramfs.mkdir (P9net.World.host w "c0").P9net.Host.root "/u2")
    (fun w env say ->
      let eng = w.P9net.World.eng in
      let imp ?mcreate host ~onto flag =
        P9net.Exportfs.import eng env ?mcreate ~host ~remote_root:"/srv"
          ~onto ~flag ()
      in
      imp "c1" ~mcreate:false ~onto:"/u" Vfs.Ns.Repl;
      imp "c2" ~mcreate:true ~onto:"/u" Vfs.Ns.After;
      imp "c3" ~mcreate:true ~onto:"/u" Vfs.Ns.After;
      Vfs.Env.write_file env "/u/fresh" "made through the union";
      say
        (Printf.sprintf "union read: %s" (Vfs.Env.read_file env "/u/fresh"));
      (* the file must be on c2 — the first member with MCREATE — and
         nowhere else; verify against the ramfs underneath each server *)
      let on host =
        Ninep.Ramfs.exists (P9net.World.host w host).P9net.Host.root
          "/srv/fresh"
      in
      say
        (Printf.sprintf "landed c1=%b c2=%b c3=%b" (on "c1") (on "c2")
           (on "c3"));
      imp "c1" ~mcreate:false ~onto:"/u2" Vfs.Ns.Repl;
      imp "c2" ~mcreate:false ~onto:"/u2" Vfs.Ns.After;
      (match Vfs.Env.write_file env "/u2/fresh" "never" with
      | () -> say "frozen create: unexpectedly succeeded"
      | exception Vfs.Chan.Error e -> say ("frozen create: " ^ e)))

(* exportfs as a relay: the tail of a 2-hop chain partitions.  The
   relay's own connection to the head must survive and keep serving
   local files while the dead hop answers with a clean relayed error —
   and the fids the relay's mount held upstream are accounted leaked. *)
let reexport_partition =
  cluster_sc "reexport-upstream-partition" ~n:3
    ~bounds:[ { E.b_counter = "9p.fids_leaked"; b_min = 1; b_max = 10000 } ]
    ~descr:
      "the re-export chain's tail partitions; the relay stays up, its \
       upstream fids are accounted leaked, the dead hop errors cleanly"
    ~prep:(fun w ->
      Ninep.Ramfs.mkdir (P9net.World.host w "c0").P9net.Host.root "/n2")
    (fun w env say ->
      let eng = w.P9net.World.eng in
      chain_imports w ~last:2;
      P9net.Exportfs.import eng env ~host:"c1" ~remote_root:"/"
        ~onto:"/n/next" ~flag:Vfs.Ns.Repl ();
      let deep = "/n/next/n/next/srv/c2" in
      say (Printf.sprintf "read: %s" (String.trim (Vfs.Env.read_file env deep)));
      let now = Sim.Engine.now eng in
      Netsim.Fault.partition
        (P9net.World.host_faults w "c2")
        ~from_:now ~until:(now +. 60.);
      (match Vfs.Env.read_file env deep with
      | _ -> say "dead hop: unexpectedly succeeded"
      | exception Vfs.Chan.Error _ -> say "dead hop: clean relayed error");
      (* same connection, same relay: its own tree still serves *)
      say
        (Printf.sprintf "relay serves: %s"
           (String.trim (Vfs.Env.read_file env "/n/next/srv/c1")));
      let c1 = P9net.World.host w "c1" in
      import_retry eng c1.P9net.Host.env ~host:"c2" ~remote_root:"/"
        ~onto:"/n/next" ~flag:Vfs.Ns.Repl ~tries:40;
      import_retry eng env ~host:"c1" ~remote_root:"/" ~onto:"/n2"
        ~flag:Vfs.Ns.Repl ~tries:40;
      say
        (Printf.sprintf "healed read: %s"
           (String.trim (Vfs.Env.read_file env "/n2/n/next/srv/c2"))))

(* three same-instant imports onto one union racing a reader: however
   the mount RPCs interleave, the final table holds every member
   exactly once (plus the mounted-upon directory) and the merged
   listing has no duplicates *)
let mount_race =
  cluster_sc "concurrent-mount-race" ~n:4 ~schedule_dependent:true
    ~descr:
      "three same-instant imports onto one union racing a reader; the \
       final union has every member exactly once"
    ~check:(fun o ->
      let lines = String.split_on_char '\n' o.E.o_transcript in
      if List.mem "final: ls=c1,c2,c3,motd members=4" lines then Ok ()
      else Error "union did not converge to all members")
    (fun w env say ->
      let eng = w.P9net.World.eng in
      let importer i =
        (* share_ns: the racers mutate the same mount table *)
        let e = Vfs.Env.fork ~share_ns:true env in
        Sim.Proc.spawn eng
          ~name:(Printf.sprintf "sc:mnt%d" i)
          (fun () ->
            P9net.Exportfs.import eng e
              ~host:(Printf.sprintf "c%d" i)
              ~remote_root:"/srv" ~onto:"/u" ~flag:Vfs.Ns.After ())
      in
      let ps = List.map importer [ 1; 2; 3 ] in
      let reader =
        Sim.Proc.spawn eng ~name:"sc:lsloop" (fun () ->
            (* a racing reader: sees any prefix of the union, must
               never crash or duplicate *)
            for _ = 1 to 5 do
              ignore (Vfs.Env.ls env "/u");
              Sim.Time.sleep eng 0.2
            done)
      in
      List.iter Sim.Proc.join (ps @ [ reader ]);
      let ns = Vfs.Env.ns env in
      let c = Vfs.Ns.resolve_for_mount ns "/u" in
      let members = List.length (Vfs.Ns.members ns c) in
      Vfs.Chan.clunk c;
      say
        (Printf.sprintf "final: ls=%s members=%d"
           (sorted_names (Vfs.Env.ls env "/u"))
           members))

(* ---- stacked cfs: a write-through racing a sibling's read ---- *)

(* terminal A writes through the shared rack tier while terminal B
   reads the same file at the same instant; under any interleaving the
   stack must not crash or return torn bytes, and once the race
   settles B must see A's write (the rack was patched in place, B's
   tier invalidates on the bumped qid.vers) *)
let cfs_stack_coherence =
  raw "cfs-stack-coherence" ~schedule_dependent:true
    ~descr:
      "write-through at one terminal races a sibling's read across the \
       shared rack tier; the settled read sees the write"
    ~check:(fun o ->
      let lines = String.split_on_char '\n' o.E.o_transcript in
      let race_ok =
        List.exists (fun l -> l = "race read: old" || l = "race read: new") lines
      in
      if not race_ok then Error "racing read returned torn bytes"
      else if not (List.mem "settled read: new" lines) then
        Error "read after the race missed the write-through"
      else Ok ())
    (fun eng say ->
      let old_body = String.make 1024 'o' in
      let fresh = "NEW" ^ String.sub old_body 3 (String.length old_body - 3) in
      let ram = Ninep.Ramfs.make ~name:"origin" () in
      Ninep.Ramfs.add_file ram "/f" old_body;
      let up_ct, up_st = Ninep.Transport.pipe eng in
      ignore (Ninep.Server.serve eng (Ninep.Ramfs.fs ram) up_st);
      let rack = Cfs.make eng ~upstream:up_ct () in
      let ta = Cfs.make eng ~upstream:(Cfs.connect rack) () in
      let tb = Cfs.make eng ~upstream:(Cfs.connect rack) () in
      let open_file cl mode =
        let root = Ninep.Client.attach cl ~uname:"sc" ~aname:"" in
        let fid = Ninep.Client.walk_path cl root [ "f" ] in
        ignore (Ninep.Client.open_ cl fid mode);
        Ninep.Client.clunk cl root;
        fid
      in
      let writer =
        Sim.Proc.spawn eng ~name:"sc:writer" (fun () ->
            let c = Ninep.Client.make eng (Cfs.connect ta) in
            Ninep.Client.session c;
            let fid = open_file c Ninep.Fcall.Ordwr in
            ignore (Ninep.Client.write c fid ~offset:0L "NEW");
            Ninep.Client.clunk c fid)
      in
      let reader =
        Sim.Proc.spawn eng ~name:"sc:reader" (fun () ->
            let c = Ninep.Client.make eng (Cfs.connect tb) in
            Ninep.Client.session c;
            let fid = open_file c Ninep.Fcall.Oread in
            let got = Ninep.Client.read_all c fid in
            Ninep.Client.clunk c fid;
            say
              (Printf.sprintf "race read: %s"
                 (if got = old_body then "old"
                  else if got = fresh then "new"
                  else "torn")))
      in
      Sim.Proc.join writer;
      Sim.Proc.join reader;
      let c = Ninep.Client.make eng (Cfs.connect tb) in
      Ninep.Client.session c;
      let fid = open_file c Ninep.Fcall.Oread in
      let got = Ninep.Client.read_all c fid in
      Ninep.Client.clunk c fid;
      say
        (Printf.sprintf "settled read: %s"
           (if got = fresh then "new" else "stale")))

(* ---- boot storm: the spine partitions mid-storm ---- *)

(* a one-rack fleet: a terminal boots warm through the rack cache,
   then the spine (rack <-> origin) goes dark.  An uncached read must
   surface as a clean 9P error, not a crash.  After the heal the rack
   redials the origin and swaps the upstream under its warm cache
   (Cfs.set_upstream); the terminal remounts and the warm re-read is
   served from cache — the rack's miss counter must not move *)
let bootstorm_partition =
  E.scenario "bootstorm-partition" ~schedule_dependent:true
    ~descr:
      "rack cache partitioned from the origin mid-storm; clean errors, \
       redial after heal resumes from the warm cache"
    ~check:(fun o ->
      let lines = String.split_on_char '\n' o.E.o_transcript in
      let want =
        [
          "warm boot: 9336 bytes";
          "partition read: clean error";
          "warm re-read: 9336 bytes, rack misses unchanged: true";
          "cold read over new upstream: ok";
        ]
      in
      match List.find_opt (fun l -> not (List.mem l lines)) want with
      | Some missing -> Error (Printf.sprintf "missing %S" missing)
      | None -> Ok ())
    (fun ~sched ~trace ->
      let fl = P9net.World.fleet ~sched ~racks:1 ~terminals:2 () in
      let w = fl.P9net.World.f_world in
      let eng = w.P9net.World.eng in
      let tr =
        match trace with
        | Some tr -> tr
        | None -> Obs.Trace.create ~capacity:512 ()
      in
      Sim.Engine.attach_obs eng tr;
      let buf = Buffer.create 256 in
      let say s =
        Buffer.add_string buf s;
        Buffer.add_char buf '\n'
      in
      let finished = ref false in
      let crash = ref None in
      let rack = List.hd fl.P9net.World.f_racks in
      let term = snd (List.hd fl.P9net.World.f_terminals) in
      let th = P9net.World.host w term in
      ignore
        (P9net.Host.spawn th "sc:main" (fun env ->
             (* wait for the rack cfsd to have dialed the origin *)
             let rec get_cache () =
               match Hashtbl.find_opt fl.P9net.World.f_caches rack with
               | Some c -> c
               | None ->
                 Sim.Time.sleep eng 0.5;
                 get_cache ()
             in
             let cache = get_cache () in
             let dial () =
               let conn =
                 P9net.Dial.redial env ~tries:40
                   ~pause:(fun () -> Sim.Time.sleep eng 0.5)
                   ("il!" ^ rack ^ "!9fs")
               in
               let c =
                 Ninep.Client.make eng
                   (P9net.Fdtrans.of_fd env conn.P9net.Dial.data_fd)
               in
               Ninep.Client.session c;
               c
             in
             let read_file c path =
               let root = Ninep.Client.attach c ~uname:"sc" ~aname:"" in
               let fid =
                 Ninep.Client.walk_path c root
                   (List.filter
                      (fun s -> s <> "")
                      (String.split_on_char '/' path))
               in
               ignore (Ninep.Client.open_ c fid Ninep.Fcall.Oread);
               let s = Ninep.Client.read_all c fid in
               Ninep.Client.clunk c fid;
               Ninep.Client.clunk c root;
               s
             in
             let c = dial () in
             let kern = read_file c "/mips/9power" in
             say (Printf.sprintf "warm boot: %d bytes" (String.length kern));
             let warm_misses = Cfs.counter cache "misses" in
             (* the spine goes dark mid-storm *)
             let now = Sim.Engine.now eng in
             Netsim.Fault.partition
               (P9net.World.segment_faults w "spine")
               ~from_:now ~until:(now +. 60.);
             (match read_file c "/lib/ndb/local" with
             | _ -> say "partition read: unexpectedly succeeded"
             | exception Ninep.Client.Err _ ->
               say "partition read: clean error");
             (* outlive the heal, then swap the upstream under the
                warm cache from the rack side *)
             Sim.Time.sleep eng 65.0;
             let rh = P9net.World.host w rack in
             let healer =
               P9net.Host.spawn rh "sc:heal" (fun renv ->
                   let conn =
                     P9net.Dial.redial renv ~tries:40
                       ~pause:(fun () -> Sim.Time.sleep eng 1.0)
                       "il!origin!exportfs"
                   in
                   Cfs.set_upstream cache
                     (P9net.Fdtrans.of_fd renv conn.P9net.Dial.data_fd))
             in
             Sim.Proc.join healer;
             (* the terminal remounts the rack 9fs on a fresh wire *)
             let c2 = dial () in
             let kern2 = read_file c2 "/mips/9power" in
             say
               (Printf.sprintf "warm re-read: %d bytes, rack misses \
                                unchanged: %b"
                  (String.length kern2)
                  (String.equal kern kern2
                  && Cfs.counter cache "misses" = warm_misses));
             (* the new upstream is live: an uncached file now serves *)
             let ndb = read_file c2 "/lib/ndb/local" in
             say
               (Printf.sprintf "cold read over new upstream: %s"
                  (if String.length ndb > 0 then "ok" else "empty"));
             finished := true));
      (try P9net.World.run ~until:600.0 w
       with e -> crash := Some (Printexc.to_string e));
      outcome eng tr buf ~finished:!finished ~crash:!crash)

(* ---- the registry ---- *)

let all : E.scenario list =
  [
    il_echo;
    tcp_echo;
    net_hangup;
    backlog;
    tcpcc_collapse;
    ninep_mount;
    ninep_flush_race;
    cfs_coherence;
    urp_dk;
    exportfs_rt;
    routed_import;
    stream_backpressure;
    stream_read_cascade;
    queue_race;
    chain_partition;
    chain_flap;
    union_member_dies;
    union_create;
    reexport_partition;
    mount_race;
    cfs_stack_coherence;
    bootstorm_partition;
  ]

let find name = List.find_opt (fun sc -> E.name sc = name) all

(* run [f] with the planted lost-wakeup bug switched on — the
   explorer's self-test: Explore must flag queue-race within the smoke
   budget when this is active *)
let with_planted_bug f =
  Block.Q.chaos_lost_wakeup := true;
  Fun.protect
    ~finally:(fun () -> Block.Q.chaos_lost_wakeup := false)
    f

(* run [f] with the planted union-walk lost-fallback bug switched on —
   the second self-test plant: a union walk that gives up at a dead
   member instead of falling through.  Schedule-independent, so only
   union-member-dies-walk-continues's explicit check can convict it. *)
let with_planted_union_bug f =
  Vfs.Ns.chaos_union_lost_walk := true;
  Fun.protect
    ~finally:(fun () -> Vfs.Ns.chaos_union_lost_walk := false)
    f
