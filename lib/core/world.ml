type t = {
  eng : Sim.Engine.t;
  ether : Netsim.Ether.t;
  segments : (string * Netsim.Ether.t) list;
  dk : Dk.Switch.t;
  db : Ndb.t;
  mutable hosts : (string * Host.t) list;
}

let create ?seed ?sched ?(ether_loss = 0.) ?(ether_bandwidth = 10e6) ~db () =
  let eng = Sim.Engine.create ?seed ?sched () in
  {
    eng;
    ether =
      Netsim.Ether.create ~bandwidth_bps:ether_bandwidth ~loss:ether_loss
        ~name:"ether0" eng;
    segments = [];
    dk = Dk.Switch.create ~name:"dk" eng;
    db;
    hosts = [];
  }

(* A routed world: one Ethernet segment per ipnet entry (dk-medium
   subnets become tunnels over the one Datakit switch instead). *)
let routed ?seed ?sched ?(ether_bandwidth = 10e6) ?dk_bandwidth ~db () =
  let eng = Sim.Engine.create ?seed ?sched () in
  let segments =
    List.filter_map
      (fun e ->
        match Ndb.get e "ipnet" with
        | Some netname when Ndb.get e "medium" <> Some "dk" ->
          Some
            ( netname,
              Netsim.Ether.create ~bandwidth_bps:ether_bandwidth ~name:netname
                eng )
        | _ -> None)
      (Ndb.entries db)
  in
  let ether =
    match segments with
    | (_, seg) :: _ -> seg
    | [] -> Netsim.Ether.create ~bandwidth_bps:ether_bandwidth ~name:"ether0" eng
  in
  {
    eng;
    ether;
    segments;
    dk = Dk.Switch.create ?bandwidth_bps:dk_bandwidth ~name:"dk" eng;
    db;
    hosts = [];
  }

let add_host ?il_config ?tcp_config ?tcpcc_config ?dns_server t name =
  let h =
    Host.create ?il_config ?tcp_config ?tcpcc_config ?dns_server
      ~ether:t.ether ~segments:t.segments ~dk:t.dk ~db:t.db ~name t.eng
  in
  t.hosts <- (name, h) :: t.hosts;
  h

let host t name = List.assoc name t.hosts
let run ?until t = Sim.Engine.run ?until t.eng
let ether_faults t = Netsim.Ether.faults t.ether

let segment_faults t name =
  Netsim.Ether.faults (List.assoc name t.segments)

let dk_faults t = Dk.Switch.faults t.dk

(* Fill every gateway's route table from the topology itself: breadth
   first over the gateway graph (two gateways are adjacent when they
   have interfaces on the same subnet), each db subnet a gateway is not
   on gets a route via the first hop toward the nearest gateway that
   is.  Deterministic: gateways sort by name, neighbours explore in
   that order. *)
let autoroute t =
  let gateways =
    List.filter_map
      (fun (name, h) ->
        match h.Host.node with
        | Some n when List.length (Route.ifaces n) >= 2 -> Some (name, n)
        | _ -> None)
      t.hosts
    |> List.sort compare
  in
  let gws = Array.of_list gateways in
  let n_gw = Array.length gws in
  let on_subnet node ~net ~mask =
    List.exists
      (fun i ->
        Inet.Ipaddr.equal i.Route.if_mask mask
        && Inet.Ipaddr.equal (Inet.Ipaddr.logand i.Route.if_addr mask) net)
      (Route.ifaces node)
  in
  (* the address of [other] on a subnet it shares with [node], if any *)
  let shared_addr node other =
    List.find_map
      (fun i ->
        let net = Inet.Ipaddr.logand i.Route.if_addr i.Route.if_mask in
        List.find_map
          (fun j ->
            if
              Inet.Ipaddr.equal i.Route.if_mask j.Route.if_mask
              && Inet.Ipaddr.equal
                   (Inet.Ipaddr.logand j.Route.if_addr j.Route.if_mask)
                   net
            then Some j.Route.if_addr
            else None)
          (Route.ifaces other))
      (Route.ifaces node)
  in
  let subnets =
    List.filter_map
      (fun e ->
        match (Ndb.get e "ipnet", Ndb.get e "ip") with
        | Some _, Some ipstr -> (
          match Inet.Ipaddr.of_string_opt ipstr with
          | Some ip ->
            let mask =
              match Ndb.get e "ipmask" with
              | Some m -> Inet.Ipaddr.of_string m
              | None -> Inet.Ipaddr.class_mask ip
            in
            Some (Inet.Ipaddr.logand ip mask, mask)
          | None -> None)
        | _, _ -> None)
      (Ndb.entries t.db)
  in
  Array.iteri
    (fun src (_, node) ->
      (* BFS: first_hop.(k) = the neighbour address src forwards through
         to reach gateway k *)
      let first_hop = Array.make n_gw None in
      let visited = Array.make n_gw false in
      visited.(src) <- true;
      let order = ref [] in
      let q = Queue.create () in
      Queue.add src q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        Array.iteri
          (fun v (_, vnode) ->
            if not visited.(v) then
              match shared_addr (snd gws.(u)) vnode with
              | Some addr ->
                visited.(v) <- true;
                first_hop.(v) <-
                  (if u = src then Some addr else first_hop.(u));
                order := v :: !order;
                Queue.add v q
              | None -> ())
          gws
      done;
      let order = List.rev !order in
      List.iter
        (fun (net, mask) ->
          if not (on_subnet node ~net ~mask) then
            (* nearest reached gateway on that subnet wins *)
            match
              List.find_opt
                (fun k -> on_subnet (snd gws.(k)) ~net ~mask)
                order
            with
            | Some k -> (
              match first_hop.(k) with
              | Some hop ->
                Route.Table.add (Route.table node) ~dest:net ~mask
                  (Route.Table.Via hop)
              | None -> ())
            | None -> ())
        subnets)
    gws

(* ---- the chain/union test cluster ---- *)

(* [n] identical hosts [c0 .. c(n-1)] on one flat subnet
   (10.20.0.0/24), each speaking IL, with exportfs and echo registered *)
let cluster_ndb n =
  let b = Buffer.create 512 in
  Buffer.add_string b
    "#\n# a flat cluster for import-chain and union-mount scenarios\n#\n";
  Buffer.add_string b "ipnet=cluster ip=10.20.0.0 ipmask=255.255.255.0\n\n";
  for i = 0 to n - 1 do
    Printf.bprintf b "sys = c%d\n\tip=10.20.0.%d ether=0a00200000%02x\n\tproto=il\n\n"
      i (10 + i) i
  done;
  Buffer.add_string b
    "il=exportfs\tport=17007\ntcp=exportfs\tport=17007\nil=echo\tport=56\n";
  Buffer.contents b

let cluster ?seed ?sched ?(n = 4) () =
  let db = Ndb.of_string (cluster_ndb n) in
  let w = create ?seed ?sched ~db () in
  for i = 0 to n - 1 do
    let name = Printf.sprintf "c%d" i in
    let h = add_host w name in
    (* seed files every host exports; mount points must exist before
       any import lands on them *)
    Ninep.Ramfs.mkdir h.Host.root "/srv";
    Ninep.Ramfs.add_file h.Host.root "/srv/motd"
      (Printf.sprintf "hello from %s\n" name);
    Ninep.Ramfs.add_file h.Host.root (Printf.sprintf "/srv/%s" name)
      (Printf.sprintf "%s\n" name);
    Ninep.Ramfs.mkdir h.Host.root "/n/next";
    Ninep.Ramfs.mkdir h.Host.root "/u";
    Host.serve_exportfs h
  done;
  w

let host_faults t name =
  match (host t name).Host.etherport with
  | Some port -> Netsim.Ether.nic_faults (Inet.Etherport.nic port)
  | None -> failwith ("host_faults: " ^ name ^ " has no NIC")

(* ---- the diskless fleet: terminals x racks x one origin ---- *)

let fleet_origin = "origin"

(* rack [k]'s gateway-plus-cache host *)
let rack_sys k = Printf.sprintf "rk%02d" k
let terminal_sys k i = Printf.sprintf "tm%02d-%03d" k i

(* rack [k]'s leaf subnet (and segment) name *)
let rack_net k = Printf.sprintf "rack%d" k

(* The fleet's ndb: a spine subnet carrying the origin file server and
   one gateway per rack, plus a leaf subnet per rack full of diskless
   terminals.  The rack gateway's spine NIC comes FIRST so its primary
   stack (which carries its transports and CS) sits on the spine — the
   rack dials origin on-subnet, and terminals reach the rack's spine
   address through their inherited default route, delivered locally at
   the rack by the routing node. *)
let fleet_ndb ?(racks = 2) ?(terminals = 4) () =
  if racks < 1 || racks > 60 then invalid_arg "fleet_ndb: racks";
  if terminals < 1 || terminals > 240 then invalid_arg "fleet_ndb: terminals";
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let mac = ref 0 in
  let next_mac () =
    incr mac;
    Printf.sprintf "aa3069%06x" !mac
  in
  line "#";
  line "# diskless fleet: %d racks x %d terminals, one origin" racks terminals;
  line "#";
  line "ipnet=spine ip=10.90.0.0 ipmask=255.255.0.0";
  for k = 0 to racks - 1 do
    line "ipnet=%s ip=10.%d.0.0 ipmask=255.255.0.0" (rack_net k) (30 + k);
    line "\tipgw=10.%d.0.1" (30 + k)
  done;
  line "sys=%s" fleet_origin;
  line "\tip=10.90.0.9 ether=%s" (next_mac ());
  line "\tproto=il";
  for k = 0 to racks - 1 do
    line "sys=%s" (rack_sys k);
    line "\tip=10.90.0.%d ether=%s" (100 + k) (next_mac ());
    line "\tip=10.%d.0.1 ether=%s" (30 + k) (next_mac ());
    line "\tproto=il";
    for i = 0 to terminals - 1 do
      line "sys=%s" (terminal_sys k i);
      line "\tip=10.%d.1.%d ether=%s" (30 + k) (10 + i) (next_mac ());
      line "\tbootf=/mips/9power";
      line "\tproto=il"
    done
  done;
  line "il=exportfs\tport=17007";
  line "tcp=exportfs\tport=17007";
  line "il=9fs\tport=17008";
  line "tcp=9fs\tport=17008";
  Buffer.contents b

type fleet = {
  f_world : t;
  f_origin : Host.t;
  f_racks : string list;
  f_terminals : (string * string) list;  (* (rack sys, terminal sys) *)
  f_caches : (string, Cfs.t) Hashtbl.t;  (* rack sys -> its cache tier *)
}

let fleet ?seed ?sched ?(racks = 2) ?(terminals = 4) ?rack_config
    ?(tap = fun _rack tr -> tr) ?ether_bandwidth () =
  let db = Ndb.of_string (fleet_ndb ~racks ~terminals ()) in
  let w = routed ?seed ?sched ?ether_bandwidth ~db () in
  let origin = add_host w fleet_origin in
  (* every terminal boots the same staged file set; size it from the
     fleet's own database *)
  Bootstage.populate ~db ~sys:(terminal_sys 0 0) origin.Host.root;
  Host.serve_exportfs origin;
  let caches = Hashtbl.create (max 1 racks) in
  let rack_names = List.init racks rack_sys in
  List.iter
    (fun rname ->
      let rh = add_host w rname in
      (* the rack's cfsd: dial the origin, interpose the shared cache,
         and serve its 9P face to the rack's terminals *)
      ignore
        (Host.spawn rh "cfsd" (fun env ->
             Sim.Time.sleep w.eng 0.5;
             let conn =
               Dial.redial env ~tries:20
                 ~pause:(fun () -> Sim.Time.sleep w.eng 0.5)
                 (Printf.sprintf "il!%s!exportfs" fleet_origin)
             in
             let up = tap rname (Fdtrans.of_fd env conn.Dial.data_fd) in
             let cache = Cfs.make ?config:rack_config w.eng ~upstream:up () in
             Hashtbl.replace caches rname cache;
             Vfs.Env.mount_fs env (Cfs.ctl_fs cache) ~onto:"/mnt/cfs"
               Vfs.Ns.Repl;
             ignore
               (Listener.start w.eng ~backlog:256 env ~addr:"il!*!9fs"
                  ~handler:(fun henv _conn ~data_fd ->
                    Sim.Proc.join
                      (Cfs.serve cache (Fdtrans.of_fd henv data_fd)))))))
    rack_names;
  let terms =
    List.concat
      (List.init racks (fun k ->
           List.init terminals (fun i -> (rack_sys k, terminal_sys k i))))
  in
  List.iter (fun (_, tname) -> ignore (add_host w tname)) terms;
  autoroute w;
  (* the spine has no single gateway — one per rack — so the origin's
     inherited-ipgw shortcut cannot apply; it routes each rack subnet
     via that rack's spine address explicitly *)
  (match origin.Host.node with
  | Some n ->
    List.iteri
      (fun k _ ->
        Route.Table.add (Route.table n)
          ~dest:(Inet.Ipaddr.of_string (Printf.sprintf "10.%d.0.0" (30 + k)))
          ~mask:(Inet.Ipaddr.of_string "255.255.0.0")
          (Route.Table.Via
             (Inet.Ipaddr.of_string (Printf.sprintf "10.90.0.%d" (100 + k)))))
      rack_names
  | None -> ());
  {
    f_world = w;
    f_origin = origin;
    f_racks = rack_names;
    f_terminals = terms;
    f_caches = caches;
  }

let bell_labs_ndb =
  {|#
# the canonical world, in the paper's own format (section 4.1)
#
ipnet=mh-astro-net ip=135.104.0.0 ipmask=255.255.255.0
	fs=bootes.research.bell-labs.com
	auth=musca
	dns=135.104.9.31
ipnet=unix-room ip=135.104.9.0
	ipgw=135.104.9.1

dknet=nj/astro
	auth=musca

sys = helix
	dom=helix.research.bell-labs.com
	bootf=/mips/9power
	ip=135.104.9.31 ether=0800690222f0
	dk=nj/astro/helix
	proto=il flavor=9cpu

sys = musca
	dom=musca.research.bell-labs.com
	ip=135.104.9.6 ether=0800690222f1
	dk=nj/astro/musca
	proto=il

sys = bootes
	dom=bootes.research.bell-labs.com
	ip=135.104.9.2 ether=0800690222f2
	proto=il flavor=9fs

sys = ai
	ip=135.104.9.99 ether=08006902fff9

sys = philw-gnot
	dk=nj/astro/philw-gnot
	flavor=9term

# a diskless terminal: only its ether address is configured; the rest
# comes from the boot protocol
sys = gnot-diskless
	ip=135.104.9.40 ether=08006902d15c
	bootf=/mips/9power

# delegation: the mit.edu zone lives on ai
nsfor=mit.edu ns=135.104.9.99

tcp=echo	port=7
tcp=discard	port=9
tcp=systat	port=11
tcp=daytime	port=13
tcp=ftp	port=21
tcp=telnet	port=23
tcp=login	port=513
tcp=exportfs	port=17007
tcp=cpu	port=17010
il=echo	port=56
il=9fs	port=17008
il=exportfs	port=17007
il=cpu	port=17010
il=rexauth	port=17021
udp=dns	port=53
|}

let mit_zone_ndb = "dom=ai.mit.edu ip=135.104.9.99\n"

let bell_labs ?seed ?sched ?ether_loss ?(cpu_commands = []) () =
  let db = Ndb.of_string bell_labs_ndb in
  let w = create ?seed ?sched ?ether_loss ~db () in
  let helix = add_host ~dns_server:true w "helix" in
  let musca = add_host w "musca" in
  let _bootes = add_host w "bootes" in
  let ai = add_host w "ai" in
  let _gnot = add_host w "philw-gnot" in
  Host.serve_exportfs helix;
  Host.serve_echo helix;
  Host.serve_exportfs musca;
  Host.serve_echo musca;
  (* the cpu service: stock commands plus any the caller supplies *)
  Cpu_cmd.serve helix
    ~commands:
      (cpu_commands
      @ [
        ("hostname", fun _env ~args:_ -> "helix\n");
        ( "echo",
          fun _env ~args -> String.concat " " args ^ "\n" );
        ( "cat",
          fun env ~args ->
            String.concat ""
              (List.map
                 (fun p -> Vfs.Env.read_file env ("/mnt/term" ^ p))
                 args) );
        ( "wc",
          fun env ~args ->
            String.concat ""
              (List.map
                 (fun p ->
                   Printf.sprintf "%d %s\n"
                     (String.length
                        (Vfs.Env.read_file env ("/mnt/term" ^ p)))
                     p)
                 args) );
        ]);
  (* the mit.edu zone is answered by ai itself *)
  (match ai.Host.udp with
  | Some udp -> ignore (Dns.serve_zone udp ~db:(Ndb.of_string mit_zone_ndb))
  | None -> ());
  (* a telnet-ish banner service on ai, for the gateway example *)
  ignore
    (Listener.start w.eng ai.Host.env ~addr:"tcp!*!telnet"
       ~handler:(fun env _conn ~data_fd ->
         ignore (Vfs.Env.write env data_fd "ai.mit.edu login: ");
         let rec echo_lines () =
           let s = Vfs.Env.read env data_fd 8192 in
           if s <> "" then begin
             ignore
               (Vfs.Env.write env data_fd
                  (Printf.sprintf "Last login by %s\n" (String.trim s)));
             echo_lines ()
           end
         in
         echo_lines ()));
  w
