(* The swarm benchmark: thousands of concurrent conversations through
   the whole stack — CS translation, the dial library, the protocol
   devices, and the transports — on one Ethernet segment.

   Every client host dials [il!swarmsrv!echo] (or tcp) through its own
   connection server, exchanges a message, then parks at a barrier
   until all conversations are established at once; the releasing
   client samples the server stack's conversation table to prove the
   concurrency was real.  Everything runs in virtual time on one
   seeded engine so the JSON is byte-identical across same-seed runs;
   wall clock is reported separately and never lands in the JSON.

   The point of the exercise is the event economy: with
   per-conversation timers an idle conversation contributes zero
   events to the engine, so engine events per conversation stay small
   no matter how many conversations park at the barrier.  The driver
   gates on that number against a recorded baseline. *)

let hosts = 25
let convs_per_host = 40
let total = hosts * convs_per_host
let msg_bytes = 512
let ramp_step = 0.002 (* seconds of virtual time between dials *)

(* one /16 with the server at 10.1.0.1 and clients spread over
   10.1.1.* upward, plus the service ports the dials resolve through *)
let swarm_ndb ~hosts () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "ipnet=swarm ip=10.1.0.0 ipmask=255.255.0.0\n";
  Buffer.add_string b "sys = swarmsrv\n\tip=10.1.0.1 ether=0800aa000000\n";
  for i = 1 to hosts do
    Printf.bprintf b "sys = swarmc%d\n\tip=10.1.%d.%d ether=0800aa%06x\n" i
      (1 + ((i - 1) / 200))
      (1 + ((i - 1) mod 200))
      i
  done;
  Buffer.add_string b "il=echo\tport=56\ntcp=echo\tport=7\n";
  Buffer.contents b

type side = {
  s_proto : string;
  s_total : int;  (* conversations this side ran *)
  s_converged : bool;  (* every conversation completed both exchanges *)
  s_completed : int;
  s_peak_convs : int;  (* server conversation table at barrier release *)
  s_elapsed : float;  (* virtual seconds until the last client finished *)
  s_events : int;  (* engine events over the whole run *)
  s_timer_arm : int;
  s_timer_fire : int;
  s_timer_disarm : int;
  s_refused : int;  (* listener backlog refusals at the server *)
  s_cs_hits : int;  (* summed over every client's connection server *)
  s_cs_misses : int;
  s_retransmits : int;  (* world-wide <proto>.retransmits *)
  s_fast_retransmits : int;  (* tcpcc only; 0 elsewhere *)
}

let events_per_conv s = float_of_int s.s_events /. float_of_int s.s_total

let events_per_byte s =
  (* payload delivered to clients: two echoed messages per conversation *)
  float_of_int s.s_events /. float_of_int (2 * msg_bytes * s.s_total)

(* write the payload and read the echo back; TCP may fragment, so
   accumulate until the full message returned *)
let echo_once env data_fd payload =
  ignore (Vfs.Env.write env data_fd payload);
  let want = String.length payload in
  let got = ref 0 in
  while !got < want do
    let s = Vfs.Env.read env data_fd 4096 in
    if s = "" then failwith "echo: eof before full reply"
    else got := !got + String.length s
  done

(* the echo service, bench-owned so the backlog is explicit *)
let serve_echo eng (server : P9net.Host.t) addr =
  ignore
    (P9net.Listener.start eng ~backlog:64 server.env ~addr
       ~handler:(fun env _conn ~data_fd ->
         let rec go () =
           let data = Vfs.Env.read env data_fd 8192 in
           if data <> "" then begin
             ignore (Vfs.Env.write env data_fd data);
             go ()
           end
         in
         go ()))

(* connection-server cache hits and misses, summed over [clients] *)
let cs_stats clients =
  List.fold_left
    (fun (h, m) (host : P9net.Host.t) ->
      let h', m' = P9net.Cs.cache_stats host.cs in
      (h + h', m + m'))
    (0, 0) clients

let run_side ?(bandwidth = 100e6) ?(ramp = ramp_step) ?close_ramp
    ?(msg_bytes = msg_bytes) ?(until = 600.0) ~seed ~proto ~hosts
    ~convs_per_host () =
  let total = hosts * convs_per_host in
  (* the close burst staggers like the dials unless told otherwise; the
     congestion bench passes ~close_ramp:0. so every conversation fires
     its second echo and hangup at the same barrier-released instant *)
  let close_ramp = Option.value close_ramp ~default:ramp in
  let db = Ndb.of_string (swarm_ndb ~hosts ()) in
  (* default 100 Mb/s: a thousand conversations on one segment must not
     queue past min_rto, or the measurement becomes a congestion-collapse
     study instead of an event-economy one.  The congestion bench passes
     ~bandwidth:10e6 ~ramp:0. to study exactly that collapse. *)
  let w = P9net.World.create ~seed ~ether_bandwidth:bandwidth ~db () in
  let eng = w.P9net.World.eng in
  let tr = Obs.Trace.create () in
  Sim.Engine.attach_obs eng tr;
  (* the profiler reads the real clock; its report never lands in the
     deterministic JSON, only in the perf sidecar *)
  let prof = Obs.Prof.create ~clock:Unix.gettimeofday () in
  Sim.Engine.attach_prof eng prof;
  let server = P9net.World.add_host w "swarmsrv" in
  let clients =
    List.init hosts (fun i ->
        P9net.World.add_host w (Printf.sprintf "swarmc%d" (i + 1)))
  in
  serve_echo eng server (proto ^ "!*!echo");
  (* barrier: every client parks here once connected, so all [total]
     conversations are simultaneously established when the last one
     arrives; the releaser samples the server's conversation table *)
  let barrier = Sim.Rendez.create eng in
  let arrived = ref 0 and peak = ref 0 in
  let completed = ref 0 and finish = ref 0. in
  (* a figure of the server's [proto] stack, read through [il] or [tcp] *)
  let server_stat il tcp =
    match proto with
    | "il" -> Option.fold ~none:0 ~some:il server.P9net.Host.il
    | "tcpcc" -> Option.fold ~none:0 ~some:tcp server.P9net.Host.tcpcc
    | _ -> Option.fold ~none:0 ~some:tcp server.P9net.Host.tcp
  in
  let server_convs () = server_stat Inet.Il.conv_count Inet.Tcp.conv_count in
  let payload = String.make msg_bytes 's' in
  List.iteri
    (fun hi host ->
      for ci = 0 to convs_per_host - 1 do
        let idx = (hi * convs_per_host) + ci in
        ignore
          (P9net.Host.spawn host
             (Printf.sprintf "swarm%d" idx)
             (fun env ->
               (* deterministic ramp: one dial every [ramp] seconds *)
               Sim.Time.sleep eng (float_of_int idx *. ramp);
               let conn =
                 P9net.Dial.redial env ~tries:20
                   ~pause:(fun () -> Sim.Time.sleep eng 0.05)
                   (proto ^ "!swarmsrv!echo")
               in
               echo_once env conn.P9net.Dial.data_fd payload;
               incr arrived;
               if !arrived = total then begin
                 peak := server_convs ();
                 Sim.Rendez.wakeup_all barrier
               end
               else Sim.Rendez.sleep barrier;
               (* stagger the second exchange and the hangup: a
                  thousand synchronized closes on one wire is a
                  congestion-collapse study, not an event-economy one
                  (with ~close_ramp:0. it IS the collapse study) *)
               Sim.Time.sleep eng (float_of_int idx *. close_ramp);
               (* under a collapse schedule the death timers reap
                  stalled conversations and the echo sees EOF; that is
                  the measurement (completed stays short), not a bench
                  failure *)
               (try
                  echo_once env conn.P9net.Dial.data_fd payload;
                  P9net.Dial.hangup env conn;
                  incr completed
                with Failure _ -> ());
               if !completed = total then finish := Sim.Engine.now eng))
      done)
    clients;
  P9net.World.run ~until w;
  let counter name = Obs.Metrics.counter (Obs.Trace.metrics tr) name in
  let refused = server_stat Inet.Il.refusals Inet.Tcp.refusals in
  let hits, misses = cs_stats clients in
  ( {
    s_proto = proto;
    s_total = total;
    s_converged = !completed = total;
    s_completed = !completed;
    s_peak_convs = !peak;
    s_elapsed = !finish;
    s_events = Sim.Engine.events eng;
    s_timer_arm = counter "timer.arm";
    s_timer_fire = counter "timer.fire";
    s_timer_disarm = counter "timer.disarm";
    s_refused = refused;
    s_cs_hits = hits;
    s_cs_misses = misses;
    s_retransmits = counter (proto ^ ".retransmits");
    s_fast_retransmits = counter (proto ^ ".fast_retransmits");
  },
    Obs.Prof.report prof )

let side_json s =
  Printf.sprintf
    "  %S: {\"converged\": %b, \"completed\": %d, \"peak_convs\": %d, \
     \"elapsed_s\": %.6f, \"engine_events\": %d, \"events_per_conv\": %.2f, \
     \"events_per_byte\": %.4f, \"timer_arm\": %d, \"timer_fire\": %d, \
     \"timer_disarm\": %d, \"backlog_refused\": %d, \"cs_cache_hits\": %d, \
     \"cs_cache_misses\": %d}"
    s.s_proto s.s_converged s.s_completed s.s_peak_convs s.s_elapsed s.s_events
    (events_per_conv s) (events_per_byte s) s.s_timer_arm s.s_timer_fire
    s.s_timer_disarm s.s_refused s.s_cs_hits s.s_cs_misses

let run ?(seed = 11) ?(hosts = hosts) ?(convs_per_host = convs_per_host) () =
  let sides =
    List.map
      (fun proto -> run_side ~seed ~proto ~hosts ~convs_per_host ())
      [ "il"; "tcp" ]
  in
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\n";
  Printf.bprintf b "  \"bench\": \"swarm\",\n";
  Printf.bprintf b "  \"seed\": %d,\n" seed;
  Printf.bprintf b "  \"hosts\": %d,\n" hosts;
  Printf.bprintf b "  \"convs_per_host\": %d,\n" convs_per_host;
  Printf.bprintf b "  \"convs\": %d,\n" (hosts * convs_per_host);
  Printf.bprintf b "  \"msg_bytes\": %d,\n" msg_bytes;
  Printf.bprintf b "%s\n}\n"
    (String.concat ",\n" (List.map (fun (s, _) -> side_json s) sides));
  {
    Bench.json = Buffer.contents b;
    perf = List.map (fun (s, rep) -> (s.s_proto, rep)) sides;
    value = List.map fst sides;
  }

(* recorded baselines for engine events per conversation (seed 11,
   25 hosts x 40 conversations, 512-byte messages); the run fails if
   the event economy regresses past them — e.g. if someone reintroduces
   a per-conversation ticker, events per conversation explodes *)
let baselines = [ ("il", 46.0 (* measured 36.35 *)); ("tcp", 60.0 (* 47.35 *)) ]

let spec =
  let checks (proto, baseline) =
    let side sides = List.find (fun s -> s.s_proto = proto) sides in
    [
      ( proto ^ " converged",
        fun sides ->
          let s = side sides in
          Bench.expect s.s_converged
            "%s swarm converged only %d of %d conversations" proto
            s.s_completed s.s_total );
      ( proto ^ " peak",
        fun sides ->
          let s = side sides in
          Bench.expect (s.s_peak_convs >= s.s_total)
            "%s peak concurrency %d < %d — the barrier did not hold every \
             conversation open at once"
            proto s.s_peak_convs s.s_total );
      ( proto ^ " events/conv",
        fun sides ->
          let epc = events_per_conv (side sides) in
          Bench.expect (epc <= baseline)
            "%s used %.2f engine events per conversation (baseline %.2f) — \
             the event economy regressed"
            proto epc baseline );
    ]
  in
  {
    Bench.name = "swarm";
    title = "swarm - 1000 concurrent conversations, IL and TCP";
    file = "swarm";
    run = (fun () -> run ());
    show = Bench.print_json;
    checks = List.concat_map checks baselines;
    golden = true;
  }
