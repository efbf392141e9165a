type conn = {
  id : int;
  driver : t;
  mutable ptype : int;
  mutable promiscuous : bool;
  mutable rx : Netsim.Ether.frame -> unit;
  mutable open_ : bool;
  rq : Block.Q.t option;
      (* the read queue of a connection opened through the device's
         clone file; [None] for the kernel's own *)
  mutable users : int;  (* open device files *)
}

and t = {
  eng : Sim.Engine.t;
  nic : Netsim.Ether.nic;
  mutable connections : conn list;  (* ascending id *)
  mutable next_id : int;
}

(* a top-level walk rather than a [List.iter] closure: a received frame
   allocates nothing here *)
let rec deliver mine frame = function
  | [] -> ()
  | c :: rest ->
    if c.open_ then begin
      let type_match = c.ptype = -1 || c.ptype = frame.Netsim.Ether.etype in
      let addr_match =
        c.promiscuous
        || frame.Netsim.Ether.dst = mine
        || frame.Netsim.Ether.dst = Netsim.Eaddr.broadcast
      in
      if type_match && addr_match then c.rx frame
    end;
    deliver mine frame rest

let distribute driver frame =
  deliver (Netsim.Ether.nic_addr driver.nic) frame driver.connections

let create eng nic =
  let driver = { eng; nic; connections = []; next_id = 0 } in
  Netsim.Ether.set_rx nic (distribute driver);
  driver

let engine t = t.eng
let addr t = Netsim.Ether.nic_addr t.nic
let nic t = t.nic

let add t ptype rq =
  let c =
    { id = t.next_id; driver = t; ptype; promiscuous = false; rx = ignore;
      open_ = true; rq; users = 0 }
  in
  t.next_id <- t.next_id + 1;
  t.connections <- t.connections @ [ c ];
  c

let connect t ptype = add t ptype None

let clone t =
  let q = Block.Q.create ~limit:(128 * 1024) t.eng in
  let c = add t 0 (Some q) in
  c.rx <-
    (fun { Netsim.Ether.src; payload; _ } ->
      let msg = Netsim.Ether.text t.nic src ^ payload in
      if not (Block.Q.try_put q (Block.make ~delim:true msg)) then begin
        (* dropped because the reader is slow, like real hardware *)
        let s = Netsim.Ether.nic_stats t.nic in
        s.Netsim.Ether.overflows <- s.Netsim.Ether.overflows + 1
      end);
  c

let find t id = List.find_opt (fun c -> c.id = id) t.connections

let conn_type c = c.ptype
let conn_id c = c.id
let driver c = c.driver
let set_conn_type c ptype = c.ptype <- ptype

let refresh_promiscuity t =
  let any = List.exists (fun c -> c.open_ && c.promiscuous) t.connections in
  Netsim.Ether.set_promiscuous t.nic any

let set_promiscuous c b =
  c.promiscuous <- b;
  refresh_promiscuity c.driver

let send c ~dst payload =
  Netsim.Ether.transmit c.driver.nic
    {
      Netsim.Ether.src = Netsim.Ether.nic_addr c.driver.nic;
      dst;
      etype = c.ptype;
      payload;
    }

let set_rx c fn = c.rx <- fn

let close_conn c =
  c.open_ <- false;
  c.driver.connections <- List.filter (fun x -> x.id <> c.id) c.driver.connections;
  refresh_promiscuity c.driver

let rq c = c.rq
let hold c = c.users <- c.users + 1

let release c =
  c.users <- c.users - 1;
  match c.rq with
  | Some q when c.users <= 0 ->
    close_conn c;
    Block.Q.close q
  | Some _ | None -> () (* a kernel connection is not the device's to close *)

let conns t = List.filter (fun c -> c.open_) t.connections

let stats_text t =
  let s = Netsim.Ether.nic_stats t.nic in
  Printf.sprintf
    "addr: %s\nin: %d\nout: %d\nin bytes: %d\nout bytes: %d\ncrc errs: %d\noverflows: %d\nconnections: %d\n"
    (Netsim.Ether.text t.nic (Netsim.Ether.nic_addr t.nic))
    s.Netsim.Ether.in_packets s.Netsim.Ether.out_packets
    s.Netsim.Ether.in_bytes s.Netsim.Ether.out_bytes s.Netsim.Ether.crc_errors
    s.Netsim.Ether.overflows
    (List.length t.connections)
