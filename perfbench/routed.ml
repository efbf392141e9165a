(* routed-swarm: 10,080 IL conversations across a 20-segment routed
   internet.  16 leaf subnets of 14 clients each sit behind their own
   gateways; two Ethernet backbones meet over an IP-over-Datakit transit,
   and the echo server hangs off the right-hand core.  Each conversation
   dials il!swarmsrv!echo through CS, echoes 512 bytes, parks at a
   barrier until every conversation is up, echoes again and hangs up.
   An op is the dial plus the first echo.

   Conversations take their 2 ms ramp slots in host order.  The seed
   draws each one's start jitter within its slot (under 0.5 ms, so the
   order holds) and the payload bytes; the world's own seed stays 11,
   since it belongs to the simulated world, not to the inputs.  A full
   shuffle of the slots would not do: half the leaves sit across the
   Datakit transit, so the median op falls on the boundary between the
   near and the far cluster and a shuffle flips it between them.  With
   [~golden:true] there is no jitter, the parameters of
   bench/golden/BENCH_routed.json. *)

let leaves = 16
let clients_per_leaf = 14
let convs_per_client = 45
let msg_bytes = 512
let ramp_step = 0.002
let max_jitter = 0.0005
let world_seed = 11
let server_sys = "swarmsrv"
let gw_sys k = Printf.sprintf "gw%02d" k
let client_sys k i = Printf.sprintf "cl%02d-%03d" k i

(* The subnetted internet in ndb form: every leaf behind its gateway,
   the gateways on two backbones joined across a medium=dk subnet by
   the two cores, the server subnet off the right core. *)
let ndb () =
  let b = Buffer.create 16384 in
  let mac = ref 0 in
  let next_mac () =
    incr mac;
    Printf.sprintf "aa1069%06x" !mac
  in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  for k = 1 to leaves do
    line "ipnet=leaf%d ip=10.%d.0.0 ipmask=255.255.0.0" k k;
    line "\tipgw=10.%d.0.1" k
  done;
  line "ipnet=bbl ip=10.100.0.0 ipmask=255.255.0.0";
  line "ipnet=bbr ip=10.101.0.0 ipmask=255.255.0.0";
  line "ipnet=srv ip=10.200.0.0 ipmask=255.255.0.0";
  line "\tipgw=10.200.0.1";
  line "ipnet=dkt ip=10.255.0.0 ipmask=255.255.0.0";
  line "\tmedium=dk";
  for k = 1 to leaves do
    let bb = if 2 * k <= leaves then "100" else "101" in
    line "sys=%s" (gw_sys k);
    line "\tip=10.%d.0.1 ether=%s" k (next_mac ());
    line "\tip=10.%s.0.%d ether=%s" bb k (next_mac ())
  done;
  line "sys=gwcorel";
  line "\tip=10.100.0.254 ether=%s" (next_mac ());
  line "\tip=10.255.0.1";
  line "\tdk=nj/bb/gwcorel";
  line "sys=gwcorer";
  line "\tip=10.101.0.254 ether=%s" (next_mac ());
  line "\tip=10.200.0.1 ether=%s" (next_mac ());
  line "\tip=10.255.0.2";
  line "\tdk=nj/bb/gwcorer";
  line "sys=%s" server_sys;
  line "\tip=10.200.0.9 ether=%s" (next_mac ());
  for k = 1 to leaves do
    for i = 1 to clients_per_leaf do
      line "sys=%s" (client_sys k i);
      line "\tip=10.%d.1.%d ether=%s" k i (next_mac ())
    done
  done;
  line "il=echo\tport=56";
  line "tcp=echo\tport=7";
  line "il=exportfs\tport=17007";
  line "tcp=exportfs\tport=17007";
  Buffer.contents b

(* Write [payload], read until as many bytes came back; true when they
   are the same bytes. *)
let echo probe c env fd payload =
  ignore
    (Probe.within probe c "vfs" "write" (fun () -> Vfs.Env.write env fd payload));
  let want = String.length payload in
  let got = Buffer.create want in
  while Buffer.length got < want do
    let s = Probe.within probe c "vfs" "read" (fun () -> Vfs.Env.read env fd 4096) in
    if s = "" then failwith "echo: eof before full reply";
    Buffer.add_string got s
  done;
  Buffer.contents got = payload

let setup ?(golden = false) ~seed ~traced () =
  let total = leaves * clients_per_leaf * convs_per_client in
  let db = Ndb.of_string (ndb ()) in
  let w =
    P9net.World.routed ~seed:world_seed ~ether_bandwidth:100e6 ~dk_bandwidth:100e6 ~db ()
  in
  let eng = w.P9net.World.eng in
  let probe = if traced then Some (Probe.create eng) else None in
  (* gateways first so tunnel listeners announce before anything routes
     into them, then the server, then the leaves.  The cores come before
     the leaf gateways, right core first: the order bench/ ends up with,
     which the golden event count depends on. *)
  List.iter
    (fun sys -> ignore (P9net.World.add_host w sys))
    ([ "gwcorer"; "gwcorel" ] @ List.init leaves (fun k -> gw_sys (k + 1)));
  let server = P9net.World.add_host w server_sys in
  let clients =
    List.concat
      (List.init leaves (fun k ->
           List.init clients_per_leaf (fun i ->
               P9net.World.add_host w (client_sys (k + 1) (i + 1)))))
  in
  P9net.World.autoroute w;
  (match probe with
  | Some p -> Probe.capture p (List.assoc "bbr" w.P9net.World.segments)
  | None -> ());
  ignore
    (P9net.Listener.start eng ~backlog:64 server.P9net.Host.env
       ~addr:"il!*!echo"
       ~handler:(fun env _conn ~data_fd ->
         let rec go () =
           let data = Vfs.Env.read env data_fd 8192 in
           if data <> "" then begin
             ignore (Vfs.Env.write env data_fd data);
             go ()
           end
         in
         go ()));
  let rng = Random.State.make [| seed |] in
  let start =
    Array.init total (fun i ->
        (float_of_int i *. ramp_step)
        +. if golden then 0. else Random.State.float rng max_jitter)
  in
  let base = String.init msg_bytes (fun _ -> Char.chr (Random.State.int rng 256)) in
  let lats = Array.make total nan in
  let bad = Array.make total false in
  let first = ref infinity and last = ref 0. in
  let barrier = Sim.Rendez.create eng in
  let arrived = ref 0 and completed = ref 0 and finish = ref 0. in
  List.iteri
    (fun hi host ->
      for ci = 0 to convs_per_client - 1 do
        let idx = (hi * convs_per_client) + ci in
        ignore
          (P9net.Host.spawn host (Printf.sprintf "rswarm%d" idx) (fun env ->
               let ramp = start.(idx) in
               Sim.Time.sleep eng ramp;
               let off = idx mod msg_bytes in
               let payload =
                 String.sub base off (msg_bytes - off) ^ String.sub base 0 off
               in
               let c = Probe.ctx () in
               c.c_op <- idx;
               let t0 = Sim.Engine.now eng in
               if t0 < !first then first := t0;
               let conn =
                 match
                   Probe.within probe c "op" "dial+echo" (fun () ->
                       let conn =
                         Probe.dial probe c env ~tries:20
                           ~pause:(fun () -> Sim.Time.sleep eng 0.05)
                           "il!swarmsrv!echo"
                       in
                       if not (echo probe c env conn.P9net.Dial.data_fd payload)
                       then bad.(idx) <- true;
                       conn)
                 with
                 | conn ->
                   let t1 = Sim.Engine.now eng in
                   lats.(idx) <- t1 -. t0;
                   if t1 > !last then last := t1;
                   Some conn
                 | exception _ ->
                   bad.(idx) <- true;
                   None
               in
               incr arrived;
               if !arrived = total then Sim.Rendez.wakeup_all barrier
               else Sim.Rendez.sleep barrier;
               c.c_op <- -1;
               (match conn with
               | Some conn -> (
                 Sim.Time.sleep eng ramp;
                 match echo probe c env conn.P9net.Dial.data_fd payload with
                 | ok ->
                   if not ok then bad.(idx) <- true;
                   P9net.Dial.hangup env conn
                 | exception _ -> bad.(idx) <- true)
               | None -> ());
               incr completed;
               if !completed = total then finish := Sim.Engine.now eng))
      done)
    clients;
  let outcome () =
    (* an op that failed, returned wrong bytes or never finished; and
       conversations that never got past the second echo *)
    let failed = ref 0 in
    Array.iteri (fun i b -> if b || Float.is_nan lats.(i) then incr failed) bad;
    let failed = max !failed (total - !completed) in
    {
      Wl.attempted = total;
      failed;
      lats = Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list lats));
      first = !first;
      last = !last;
      fingerprint =
        [
          ("engine_events", string_of_int (Sim.Engine.events eng));
          ("completed", string_of_int !completed);
          ("elapsed_s", Printf.sprintf "%.6f" !finish);
        ];
    }
  in
  let micro () =
    let cl = List.hd clients in
    let p = Option.get probe in
    {
      Micro.fcalls = [];
      packets = p.Probe.packets.kept;
      table = Route.table (Option.get (P9net.World.host w "gwcorer").P9net.Host.node);
      ns = Vfs.Env.ns cl.P9net.Host.env;
      paths = "/net/cs" :: "/net/il/clone" :: List.map (fun (_, d) -> d ^ "/status") p.Probe.dials;
      cs = cl.P9net.Host.cs;
      addrs = List.map fst p.Probe.dials;
      db;
      names = List.map (fun (h : P9net.Host.t) -> h.name) (server :: clients);
    }
  in
  {
    Wl.world = w;
    probe;
    horizon = 900.;
    outcome;
    layers = (fun () -> []);
    daemons = [ "ether"; "listen"; "il"; "dk"; "urp" ];
    micro;
  }

let workload =
  { Wl.name = "routed-swarm"; default_seed = 11; setup = (fun ~seed ~traced -> setup ~seed ~traced ()) }
