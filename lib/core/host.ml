type t = {
  name : string;
  eng : Sim.Engine.t;
  env : Vfs.Env.t;
  root : Ninep.Ramfs.t;
  db : Ndb.t;
  etherport : Inet.Etherport.t option;
  ip : Inet.Ip.stack option;
  ipstacks : Inet.Ip.stack list;
  node : Route.t option;
  il : Inet.Il.stack option;
  tcp : Inet.Tcp.stack option;
  tcpcc : Inet.Tcp.stack option;
  udp : Inet.Udp.stack option;
  dkline : Dk.Switch.line option;
  resolver : Dns.resolver option;
  cs : Cs.t;
}

(* the entry's ip= attributes pair positionally with its ether=
   attributes; addresses beyond the ether list ride other media
   (a dk-medium subnet reached through a Datakit tunnel) *)
let rec pair_addrs ips ethers =
  match (ips, ethers) with
  | ip :: ips', ea :: ethers' -> (ip, Some ea) :: pair_addrs ips' ethers'
  | ip :: ips', [] -> (ip, None) :: pair_addrs ips' []
  | [], _ -> []

let create ?uname ?ether ?(segments = []) ?dk ?il_config ?tcp_config
    ?tcpcc_config ?(dns_server = false) ~db ~name eng =
  let entry =
    match Ndb.sys_entry db name with
    | Some e -> e
    | None -> failwith ("Host.create: no database entry for " ^ name)
  in
  let uname = match uname with Some u -> u | None -> name in
  let root = Ninep.Ramfs.make ~owner:uname ~name:(name ^ "-root") () in
  Ninep.Ramfs.mkdir root "/net";
  Ninep.Ramfs.mkdir root "/n";
  Ninep.Ramfs.mkdir root "/tmp";
  Ninep.Ramfs.mkdir root "/lib/ndb";
  Ninep.Ramfs.mkdir root "/dev/mnt";
  Ninep.Ramfs.mkdir root "/mnt/cfs";
  let ns = Vfs.Ns.make ~root:(Ninep.Ramfs.fs root) ~uname in
  let env = Vfs.Env.make ~ns ~uname in
  (* per-mount 9P RPC ledgers, one numbered directory per mount *)
  Vfs.Env.mount_fs env
    (Vfs.Mnt.stats_fs (fun () -> Vfs.Ns.mounts ns))
    ~onto:"/dev/mnt" Vfs.Ns.Repl;

  (* --- address book: segment, mask, gateway per interface address --- *)
  let subnet_of ipstr = Ndb.ipnet_entry db ~ip:ipstr in
  let segment_for ipstr =
    (* a routed world names its segments after the ipnet entries; the
       single-segment worlds just hand every NIC the one wire *)
    match Option.bind (subnet_of ipstr) (fun e -> Ndb.get e "ipnet") with
    | Some netname -> (
      match List.assoc_opt netname segments with
      | Some seg -> Some seg
      | None -> ether)
    | None -> ether
  in
  let mask_for ipstr =
    match Ndb.ipattr db ~ip:ipstr ~attr:"ipmask" with
    | Some m -> Inet.Ipaddr.of_string m
    | None -> (
      match Option.bind (subnet_of ipstr) (fun e -> Ndb.get e "ipmask") with
      | Some m -> Inet.Ipaddr.of_string m
      | None -> Inet.Ipaddr.class_mask (Inet.Ipaddr.of_string ipstr))
  in
  let gateway_for ipstr =
    match Ndb.ipattr db ~ip:ipstr ~attr:"ipgw" with
    | Some g -> Some (Inet.Ipaddr.of_string g)
    | None ->
      Option.map Inet.Ipaddr.of_string
        (Option.bind (subnet_of ipstr) (fun e -> Ndb.get e "ipgw"))
  in

  (* --- Ethernet NICs: one IP stack per ip=/ether= pair --- *)
  let pairs = pair_addrs (Ndb.get_all entry "ip") (Ndb.get_all entry "ether") in
  let nics =
    List.filter_map
      (fun (ipstr, ea) ->
        match (ea, Option.bind ea (fun _ -> segment_for ipstr)) with
        | Some ea, Some segment ->
          let nic =
            Netsim.Ether.attach segment (Netsim.Eaddr.of_string ea)
          in
          let port = Inet.Etherport.create eng nic in
          let addr = Inet.Ipaddr.of_string ipstr in
          let ipstack =
            Inet.Ip.create ?gateway:(gateway_for ipstr) ~addr
              ~mask:(mask_for ipstr) port
          in
          Some (port, ipstack)
        | _, _ -> None)
      pairs
  in
  let tunnel_addrs =
    List.filter_map
      (fun (ipstr, ea) -> if ea = None then Some ipstr else None)
      pairs
  in
  let etherport = Option.map fst (List.nth_opt nics 0) in
  let ipstacks = List.map snd nics in
  let ip = List.nth_opt ipstacks 0 in

  (* --- transports, on the primary stack --- *)
  let il, tcp, tcpcc, udp =
    match ip with
    | Some ipstack ->
      let il = Inet.Il.attach ?config:il_config ipstack in
      let tcp = Inet.Tcp.attach ?config:tcp_config ipstack in
      let tcpcc = Inet.Tcp.attach_cc ?config:tcpcc_config ipstack in
      let udp = Inet.Udp.attach ipstack in
      Netdev.mount env (Netdev.ip_proto il);
      Netdev.mount env (Netdev.ip_proto tcp);
      Netdev.mount env (Netdev.ip_proto tcpcc);
      Netdev.mount env (Netdev.ip_proto udp);
      (Some il, Some tcp, Some tcpcc, Some udp)
    | None -> (None, None, None, None)
  in
  List.iteri
    (fun i (port, ipstack) ->
      Ether_dev.mount env port ~name:(Printf.sprintf "ether%d" i);
      if i = 0 then begin
        Netinfo.mount_arp env ipstack;
        Netinfo.mount_ipifc env ipstack
      end)
    nics;

  (* --- Datakit --- *)
  let dkline =
    match (dk, Ndb.get entry "dk") with
    | Some switch, Some dkname ->
      let line = Dk.Switch.attach switch ~name:dkname in
      Netdev.mount env (Netdev.dk_proto line);
      Some line
    | _, _ -> None
  in

  (* --- the routing node: every IP host gets one --- *)
  let node =
    match ip with
    | None -> None
    | Some primary ->
      let node = Route.create ~name eng in
      Route.set_deliver node (fun raw -> Inet.Ip.deliver_raw primary raw);
      List.iteri
        (fun i st ->
          ignore
            (Route.attach_stack node ~ifname:(Printf.sprintf "ether%d" i) st))
        ipstacks;
      (* dk-medium subnets become point-to-point IP tunnels over the
         Datakit switch: the member with the smallest system name
         answers, the other calls *)
      List.iteri
        (fun i ipstr ->
          match (dkline, subnet_of ipstr) with
          | Some line, Some sub when Ndb.get sub "medium" = Some "dk" -> (
            let netname =
              Option.value ~default:"dk" (Ndb.get sub "ipnet")
            in
            let mask = mask_for ipstr in
            let addr = Inet.Ipaddr.of_string ipstr in
            let net = Inet.Ipaddr.logand addr mask in
            let members =
              List.filter_map
                (fun e ->
                  match (Ndb.get e "sys", Ndb.get e "dk") with
                  | Some sys, Some dkname
                    when List.exists
                           (fun i ->
                             match Inet.Ipaddr.of_string_opt i with
                             | Some a ->
                               Inet.Ipaddr.in_subnet a ~net ~mask
                             | None -> false)
                           (Ndb.get_all e "ip") ->
                    Some (sys, dkname)
                  | _, _ -> None)
                (Ndb.entries db)
              |> List.sort compare
            in
            let ifname = Printf.sprintf "dk%d" i in
            let service = "ip." ^ netname in
            match members with
            | (first, _) :: _ when first = name ->
              ignore
                (Route.dk_tunnel_listen node ~ifname ~addr ~mask line
                   ~service)
            | (_, first_dk) :: _ ->
              ignore
                (Route.dk_tunnel_dial node ~ifname ~addr ~mask line
                   ~dest:first_dk ~service)
            | [] -> ())
          | _, _ -> ())
        tunnel_addrs;
      (* the inherited ipgw is the default route, unless this host is
         that gateway itself *)
      (match Option.bind (List.nth_opt pairs 0) (fun (i, _) -> gateway_for i)
       with
      | Some gw
        when not
               (List.exists
                  (fun i -> Inet.Ipaddr.equal gw i.Route.if_addr)
                  (Route.ifaces node)) ->
        Route.Table.add (Route.table node) ~dest:Inet.Ipaddr.any
          ~mask:Inet.Ipaddr.any (Route.Table.Via gw)
      | Some _ | None -> ());
      Netinfo.mount_iproute env node;
      Some node
  in

  (* --- DNS --- *)
  let resolver =
    match (udp, Ndb.get entry "ip") with
    | Some udp, Some ipstr -> (
      if dns_server then ignore (Dns.serve_zone udp ~db);
      match Ndb.ipattr db ~ip:ipstr ~attr:"dns" with
      | Some server_ip ->
        let r =
          Dns.resolver udp ~server:(Inet.Ipaddr.of_string server_ip) ()
        in
        Dns.mount env r;
        Some r
      | None -> None)
    | _, _ -> None
  in

  (* --- the connection server --- *)
  let networks =
    List.filter_map
      (fun (proto, present, nw_kind) ->
        if present then
          Some { Cs.nw_proto = proto; nw_clone = "/net/" ^ proto ^ "/clone"; nw_kind }
        else None)
      [
        ("il", Option.is_some il, `Inet);
        ("dk", Option.is_some dkline, `Dk);
        ("tcp", Option.is_some tcp, `Inet);
        ("tcpcc", Option.is_some tcpcc, `Inet);
        ("udp", Option.is_some udp, `Inet);
      ]
  in
  let dns_fn =
    match resolver with
    | Some r -> Some (fun dom -> Dns.lookup_ip r dom)
    | None -> None
  in
  let cs = Cs.make ~sysname:name ~db ~networks ?dns:dns_fn () in
  Cs.mount env cs;

  (* --- the kernel event log and counter time-series --- *)
  Netinfo.mount_log env eng;
  Netinfo.mount_metrics env eng;
  {
    name;
    eng;
    env;
    root;
    db;
    etherport;
    ip;
    ipstacks;
    node;
    il;
    tcp;
    tcpcc;
    udp;
    dkline;
    resolver;
    cs;
  }

let mount_cached t ?config ?(aname = "") ?env ~upstream ~onto flag =
  let env = match env with Some e -> e | None -> t.env in
  let cache = Cfs.make ?config t.eng ~upstream () in
  let client = Ninep.Client.make t.eng (Cfs.transport cache) in
  Ninep.Client.session client;
  Vfs.Env.mount env client ~aname ~onto flag;
  Vfs.Env.mount_fs env (Cfs.ctl_fs cache) ~onto:"/mnt/cfs" Vfs.Ns.Repl;
  cache

let spawn t name fn =
  let env = Vfs.Env.fork t.env in
  Sim.Proc.spawn t.eng ~name:(t.name ^ ":" ^ name) (fun () -> fn env)

let nets_of t =
  List.filter_map
    (fun (net, present) -> if present then Some net else None)
    [ ("il", Option.is_some t.il); ("dk", Option.is_some t.dkline);
      ("tcp", Option.is_some t.tcp); ("tcpcc", Option.is_some t.tcpcc) ]

let serve_exportfs t =
  List.iter
    (fun proto ->
      ignore
        (Listener.start t.eng t.env
           ~addr:(Printf.sprintf "%s!*!exportfs" proto)
           ~handler:(fun env conn ~data_fd ->
             let tr = Fdtrans.of_conn env ~dir:conn.Dial.dir data_fd in
             let srv = Exportfs.serve t.eng env tr in
             Sim.Proc.join srv)))
    (nets_of t)

let serve_echo t =
  List.iter
    (fun proto ->
      ignore
        (Listener.start t.eng t.env
           ~addr:(Printf.sprintf "%s!*!echo" proto)
           ~handler:(fun env _conn ~data_fd ->
             let rec go () =
               let data = Vfs.Env.read env data_fd 8192 in
               if data <> "" then begin
                 ignore (Vfs.Env.write env data_fd data);
                 go ()
               end
             in
             go ())))
    (nets_of t)
