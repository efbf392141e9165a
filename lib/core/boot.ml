let packet_type = 0xB007

type config = {
  bc_ip : Inet.Ipaddr.t;
  bc_mask : Inet.Ipaddr.t;
  bc_gw : Inet.Ipaddr.t option;
  bc_bootf : string;
  bc_fs : Inet.Ipaddr.t option;
}

exception Boot_error of string

let words s =
  String.split_on_char ' ' (String.trim s) |> List.filter (fun w -> w <> "")

let config_line db ~ether =
  match Ndb.search db ~attr:"ether" ~value:ether with
  | [] -> None
  | e :: _ -> (
    match Ndb.get e "ip" with
    | None -> None
    | Some ip ->
      let attr a = Ndb.ipattr db ~ip ~attr:a in
      let mask =
        match attr "ipmask" with
        | Some m -> m
        | None ->
          Inet.Ipaddr.to_string
            (Inet.Ipaddr.class_mask (Inet.Ipaddr.of_string ip))
      in
      let gw = Option.value ~default:"none" (attr "ipgw") in
      let bootf = Option.value ~default:"none" (Ndb.get e "bootf") in
      (* fs= names a domain; resolve it to an address through the db *)
      let fs =
        match attr "fs" with
        | None -> "none"
        | Some fsdom -> (
          match Ndb.sys_entry db fsdom with
          | Some fse -> Option.value ~default:"none" (Ndb.get fse "ip")
          | None -> "none")
      in
      Some (Printf.sprintf "boot %s %s %s %s %s" ip mask gw bootf fs))

let serve host =
  match host.Host.etherport with
  | None -> None
  | Some port ->
    let conn = Inet.Etherport.connect port packet_type in
    let eng = host.Host.eng in
    let inbox = Sim.Mbox.create eng in
    Inet.Etherport.set_rx conn (fun fr -> Sim.Mbox.send inbox fr);
    Some
      (Sim.Proc.spawn eng ~name:"bootd" (fun () ->
           let rec loop () =
             let fr = Sim.Mbox.recv inbox in
             (if String.trim fr.Netsim.Ether.payload = "boot?" then
                let ether =
                  Netsim.Eaddr.to_string fr.Netsim.Ether.src
                in
                match config_line host.Host.db ~ether with
                | Some line ->
                  Inet.Etherport.send conn ~dst:fr.Netsim.Ether.src line
                | None -> () (* not ours to answer *));
             loop ()
           in
           loop ()))

let parse_reply line =
  match words line with
  | [ "boot"; ip; mask; gw; bootf; fs ] -> (
    match
      (Inet.Ipaddr.of_string_opt ip, Inet.Ipaddr.of_string_opt mask)
    with
    | Some bc_ip, Some bc_mask ->
      Some
        {
          bc_ip;
          bc_mask;
          bc_gw = (if gw = "none" then None else Inet.Ipaddr.of_string_opt gw);
          bc_bootf = bootf;
          bc_fs = (if fs = "none" then None else Inet.Ipaddr.of_string_opt fs);
        }
    | _, _ -> None)
  | _ -> None

let discover ?(timeout = 1.0) ?(retries = 3) port =
  let eng = Inet.Etherport.engine port in
  let conn = Inet.Etherport.connect port packet_type in
  let inbox = Sim.Mbox.create eng in
  Inet.Etherport.set_rx conn (fun fr -> Sim.Mbox.send inbox fr);
  Fun.protect
    ~finally:(fun () -> Inet.Etherport.close_conn conn)
    (fun () ->
      let rec attempt n =
        if n <= 0 then raise (Boot_error "no boot server answered")
        else begin
          Inet.Etherport.send conn ~dst:Netsim.Eaddr.broadcast "boot?";
          let deadline = Sim.Engine.now eng +. timeout in
          let rec wait () =
            if Sim.Engine.now eng >= deadline then None
            else
              match Sim.Mbox.try_recv inbox with
              | Some fr -> (
                match parse_reply fr.Netsim.Ether.payload with
                | Some cfg -> Some cfg
                | None -> wait ())
              | None ->
                Sim.Time.sleep eng 0.01;
                wait ()
          in
          match wait () with Some cfg -> cfg | None -> attempt (n - 1)
        end
      in
      attempt retries)

let boot_diskless w ~ether_addr customize =
  ignore customize;
  let eng = w.World.eng in
  let nic =
    Netsim.Ether.attach w.World.ether (Netsim.Eaddr.of_string ether_addr)
  in
  let port = Inet.Etherport.create eng nic in
  let cfg = discover port in
  (* with an address, the station can build its stack *)
  let ip =
    Inet.Ip.create ?gateway:cfg.bc_gw ~addr:cfg.bc_ip ~mask:cfg.bc_mask port
  in
  (* even a diskless station routes through a node: its on-link subnet
     plus the boot-supplied gateway as default *)
  let node = Route.create ~name:("boot:" ^ ether_addr) eng in
  Route.set_deliver node (fun raw -> Inet.Ip.deliver_raw ip raw);
  ignore (Route.attach_stack node ~ifname:"ether0" ip);
  (match cfg.bc_gw with
  | Some gw when not (Inet.Ipaddr.equal gw cfg.bc_ip) ->
    Route.Table.add (Route.table node) ~dest:Inet.Ipaddr.any
      ~mask:Inet.Ipaddr.any (Route.Table.Via gw)
  | Some _ | None -> ());
  let il = Inet.Il.attach ip in
  let fs_ip =
    match cfg.bc_fs with
    | Some a -> a
    | None -> raise (Boot_error "no file server in configuration")
  in
  (* fetch the boot file from the file server's exportfs over 9P/IL *)
  let db = w.World.db in
  let port_9p =
    match Ndb.service_port db ~proto:"il" ~service:"exportfs" with
    | Some p -> p
    | None -> raise (Boot_error "no exportfs port in the database")
  in
  let conv =
    try Inet.Il.connect il ~raddr:fs_ip ~rport:port_9p
    with Inet.Conv.Refused e | Inet.Conv.Timeout e -> raise (Boot_error e)
  in
  let tr =
    {
      Ninep.Transport.t_send = (fun m -> Inet.Il.write conv m);
      t_recv = (fun () -> Inet.Il.read_msg conv);
      t_close = (fun () -> Inet.Il.close conv);
    }
  in
  let client = Ninep.Client.make eng tr in
  (try
     Ninep.Client.session client;
     let root = Ninep.Client.attach client ~uname:"none" ~aname:"" in
     let comps =
       List.filter (fun s -> s <> "") (String.split_on_char '/' cfg.bc_bootf)
     in
     let f = Ninep.Client.walk_path client root comps in
     ignore (Ninep.Client.open_ client f Ninep.Fcall.Oread);
     let contents = Ninep.Client.read_all client f in
     Ninep.Client.hangup client;
     (cfg, contents)
   with Ninep.Client.Err e -> raise (Boot_error e))
