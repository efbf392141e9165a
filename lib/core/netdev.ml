type conv_ops = {
  cv_read : count:int -> string;
  cv_write : string -> (int, string) result;
  cv_local : unit -> string;
  cv_remote : unit -> string;
  cv_status : unit -> string;
  cv_stats : unit -> string;
  cv_close : unit -> unit;
}

type listener_ops = {
  ln_accept : unit -> (conv_ops * string, string) result;
  ln_set_backlog : int -> (unit, string) result;
      (* the ctl message "backlog n"; protocols without a bounded
         accept queue answer Error *)
  ln_status : unit -> string;
      (* announced-state detail for the status file, e.g.
         "Announced backlog 16 queued 0 refused 0" *)
  ln_close : unit -> unit;
}

type proto = {
  pr_name : string;
  pr_connect : string -> (conv_ops * string, string) result;
  pr_announce : string -> (listener_ops, string) result;
}

type conn_state =
  | Idle
  | Announced of listener_ops * string  (* announce address *)
  | Connected of conv_ops * string  (* remote address *)
  | Hungup

type conn = {
  id : int;
  dev : dev;
  mutable state : conn_state;
  mutable users : int;  (* open file handles on this conn's files *)
}

and dev = {
  proto : proto;
  conns : (int, conn) Hashtbl.t;
  mutable next_conn : int;
}

(* ---- connection lifecycle ---- *)

let alloc_conn dev =
  let id = dev.next_conn in
  dev.next_conn <- id + 1;
  let c = { id; dev; state = Idle; users = 0 } in
  Hashtbl.replace dev.conns id c;
  c

let close_conn c =
  (match c.state with
  | Connected (cv, _) -> cv.cv_close ()
  | Announced (ln, _) -> ln.ln_close ()
  | Idle | Hungup -> ());
  c.state <- Hungup

let release c =
  c.users <- c.users - 1;
  if c.users <= 0 then begin
    (* the last reference is gone (see [Ninep.Devtab.hold]) *)
    close_conn c;
    Hashtbl.remove c.dev.conns c.id
  end

(* ---- ctl commands ---- *)

let ctl_write dev c text =
  let words =
    String.split_on_char ' ' (String.trim text)
    |> List.filter (fun w -> w <> "")
  in
  match (words, c.state) with
  | [ "connect"; addr ], Idle -> (
    match dev.proto.pr_connect addr with
    | Ok (cv, remote) ->
      c.state <- Connected (cv, remote);
      Ok ()
    | Error e -> Error e)
  | "connect" :: _, (Announced _ | Connected _ | Hungup) ->
    Error "connection in use"
  | [ "announce"; addr ], Idle -> (
    match dev.proto.pr_announce addr with
    | Ok ln ->
      c.state <- Announced (ln, addr);
      Ok ()
    | Error e -> Error e)
  | [ "backlog"; n ], Announced (ln, _) -> (
    match int_of_string_opt n with
    | Some b when b > 0 -> ln.ln_set_backlog b
    | Some _ | None -> Error ("bad backlog: " ^ n))
  | "backlog" :: _, (Idle | Connected _ | Hungup) ->
    Error "not announced"
  | "hangup" :: _, _ ->
    (* an optional rejection reason is accepted and, on IP networks,
       ignored — as the paper says *)
    close_conn c;
    Ok ()
  | _, _ -> Error ("bad control message: " ^ String.trim text)

(* ---- the device table ---- *)

type node = conn Ninep.Devtab.node

let conv = Ninep.Devtab.conv

let text name f =
  {
    Ninep.Devtab.file with
    name;
    read = (fun n ~offset ~count -> Ok (Ninep.Server.slice (f (conv n)) ~offset ~count));
  }

(* the files of every conversation directory, shared by every device:
   a conversation reaches its device through [c.dev] *)
let conv_files =
  [|
    {
      (text "ctl" (fun c -> string_of_int c.id)) with
      write =
        (fun n data ->
          let c = conv n in
          Result.map (fun () -> String.length data) (ctl_write c.dev c data));
    };
    {
      Ninep.Devtab.file with
      name = "data";
      read =
        (fun n ~offset:_ ~count ->
          match (conv n).state with
          | Connected (cv, _) -> Ok (cv.cv_read ~count)
          | Idle | Announced _ | Hungup -> Error "not connected");
      write =
        (fun n data ->
          match (conv n).state with
          | Connected (cv, _) -> cv.cv_write data
          | Idle | Announced _ | Hungup -> Error "not connected");
    };
    {
      Ninep.Devtab.file with
      name = "listen";
      open_ =
        (fun n ->
          let c = conv n in
          match c.state with
          | Announced (ln, _) -> (
            (* blocks until an incoming call arrives *)
            match ln.ln_accept () with
            | Ok (cv, remote) ->
              let nc = alloc_conn c.dev in
              nc.state <- Connected (cv, remote);
              (* the returned descriptor points at the new
                 conversation's ctl *)
              Ninep.Devtab.redirect n nc "ctl"
            | Error e -> Error e)
          | Idle | Connected _ | Hungup -> Error "not announced");
    };
    text "local" (fun c ->
        match c.state with
        | Connected (cv, _) -> cv.cv_local () ^ "\n"
        | Announced (_, addr) -> addr ^ "\n"
        | Idle | Hungup -> "\n");
    text "remote" (fun c ->
        match c.state with
        | Connected (cv, _) -> cv.cv_remote () ^ "\n"
        | Announced _ | Idle | Hungup -> "\n");
    text "status" (fun c ->
        let name = c.dev.proto.pr_name in
        (match c.state with
        | Connected (cv, _) -> cv.cv_status ()
        | Announced (ln, _) -> Printf.sprintf "%s/%d %s" name c.id (ln.ln_status ())
        | Idle -> Printf.sprintf "%s/%d 0 Closed" name c.id
        | Hungup -> Printf.sprintf "%s/%d 0 Hungup" name c.id)
        ^ "\n");
    text "stats" (fun c ->
        match c.state with
        | Connected (cv, _) -> cv.cv_stats ()
        | Announced _ | Idle | Hungup -> "");
  |]

let fs proto =
  let dev = { proto; conns = Hashtbl.create 17; next_conn = 0 } in
  Ninep.Devtab.fs
    {
      Ninep.Devtab.table with
      fs_name = "netdev:" ^ proto.pr_name;
      owner = "network";
      letter = 'I';
      top =
        [|
          (* reserve an unused connection and become its ctl file *)
          {
            Ninep.Devtab.file with
            name = "clone";
            open_ = (fun n -> Ninep.Devtab.redirect n (alloc_conn dev) "ctl");
          };
        |];
      convs =
        {
          conv_files;
          number = (fun c -> c.id);
          find = Hashtbl.find_opt dev.conns;
          listing =
            (fun () ->
              Hashtbl.fold (fun _ c acc -> c :: acc) dev.conns []
              |> List.sort (fun a b -> compare a.id b.id));
          hold = (fun c -> c.users <- c.users + 1);
          release;
        };
    }

let mount env proto =
  let dir = "/net/" ^ proto.pr_name in
  Vfs.Env.ensure_dir env dir;
  Vfs.Env.mount_fs env (fs proto) ~onto:dir Vfs.Ns.Repl

(* ---- protocol adapters ---- *)

let split_addr addr =
  match String.index_opt addr '!' with
  | Some i ->
    ( String.sub addr 0 i,
      String.sub addr (i + 1) (String.length addr - i - 1) )
  | None -> (addr, "")

(* the port after the last '!': announcements accept "17008" and
   "*!17008" *)
let after_bang addr =
  match String.rindex_opt addr '!' with
  | Some i -> String.sub addr (i + 1) (String.length addr - i - 1)
  | None -> addr

(* what IL and TCP have in common: the conversation calls and their
   three failures *)
module type IP = sig
  type stack
  type conv
  type listener

  exception Refused of string
  exception Timeout of string
  exception Hungup
  exception Port_exhausted

  val local_addr : stack -> Inet.Ipaddr.t
  val connect : ?lport:int -> stack -> raddr:Inet.Ipaddr.t -> rport:int -> conv
  val announce : ?backlog:int -> stack -> port:int -> listener
  val listen : listener -> conv
  val close_listener : listener -> unit
  val set_backlog : listener -> int -> unit
  val backlog : listener -> int
  val queued : listener -> int
  val refused : listener -> int
  val write : conv -> string -> unit
  val read : conv -> int -> string
  val close : conv -> unit
  val local_port : conv -> int
  val remote_port : conv -> int
  val remote_addr : conv -> Inet.Ipaddr.t
  val status : conv -> string
  val conv_stats : conv -> string
end

let ip_proto (type s) (module T : IP with type stack = s) name (st : s) =
  let conv_ops conv =
    {
      cv_read = (fun ~count -> T.read conv count);
      cv_write =
        (fun data ->
          try
            T.write conv data;
            Ok (String.length data)
          with T.Hungup -> Error "hungup");
      cv_local =
        (* the paper's transcripts show "address port" *)
        (fun () ->
          Printf.sprintf "%s %d"
            (Inet.Ipaddr.to_string (T.local_addr st))
            (T.local_port conv));
      cv_remote =
        (fun () ->
          Printf.sprintf "%s %d"
            (Inet.Ipaddr.to_string (T.remote_addr conv))
            (T.remote_port conv));
      cv_status = (fun () -> T.status conv);
      cv_stats = (fun () -> T.conv_stats conv);
      cv_close = (fun () -> T.close conv);
    }
  in
  {
    pr_name = name;
    pr_connect =
      (fun addr ->
        let host, port = split_addr addr in
        match (Inet.Ipaddr.of_string_opt host, int_of_string_opt port) with
        | Some raddr, Some rport -> (
          try Ok (conv_ops (T.connect st ~raddr ~rport), addr) with
          | T.Refused e | T.Timeout e -> Error e
          | T.Port_exhausted -> Error "no free local ports")
        | _, _ -> Error (Printf.sprintf "bad %s address: %s" name addr));
    pr_announce =
      (fun addr ->
        match int_of_string_opt (after_bang addr) with
        | None -> Error (Printf.sprintf "bad %s announcement: %s" name addr)
        | Some port -> (
          try
            let lis = T.announce st ~port in
            Ok
              {
                ln_accept =
                  (fun () ->
                    let conv = T.listen lis in
                    Ok
                      ( conv_ops conv,
                        Printf.sprintf "%s!%d"
                          (Inet.Ipaddr.to_string (T.remote_addr conv))
                          (T.remote_port conv) ));
                ln_set_backlog =
                  (fun n ->
                    T.set_backlog lis n;
                    Ok ());
                ln_status =
                  (fun () ->
                    Printf.sprintf "%d Announced backlog %d queued %d refused %d"
                      port (T.backlog lis) (T.queued lis) (T.refused lis));
                ln_close = (fun () -> T.close_listener lis);
              }
          with Invalid_argument e -> Error e));
  }

(* each transport's module is packed once *)
let il_proto = ip_proto (module Inet.Il) "il"

(* serves both registered variants: the directory name and error
   strings follow the stack ("tcp" or "tcpcc") *)
let tcp_proto =
  let tcp = ip_proto (module Inet.Tcp) in
  fun st -> tcp (Inet.Tcp.proto_name st) st

(* a UDP conversation with one peer, whose next datagram [recv]
   blocks for *)
let udp_conv st ~port ~raddr ~rport ~recv ~send ~close =
  {
    cv_read =
      (fun ~count ->
        let d = recv () in
        if String.length d <= count then d else String.sub d 0 count);
    cv_write = send;
    cv_local =
      (fun () ->
        Printf.sprintf "%s!%d" (Inet.Ipaddr.to_string (Inet.Udp.local_addr st)) port);
    cv_remote = (fun () -> Printf.sprintf "%s!%d" (Inet.Ipaddr.to_string raddr) rport);
    cv_status = (fun () -> Printf.sprintf "udp/%d Open" port);
    cv_stats =
      (fun () ->
        let c = Inet.Udp.counters st in
        Printf.sprintf "dgrams_sent %d\ndgrams_rcvd %d\nno_port %d\n"
          c.Inet.Udp.dg_sent c.Inet.Udp.dg_rcvd c.Inet.Udp.dg_dropped_noport);
    cv_close = close;
  }

let udp_proto st =
  {
    pr_name = "udp";
    pr_connect =
      (fun addr ->
        let host, port = split_addr addr in
        match (Inet.Ipaddr.of_string_opt host, int_of_string_opt port) with
        | Some raddr, Some rport ->
          (* "connected" UDP: a bound socket restricted to one peer *)
          let conv = Inet.Udp.bind st in
          let closed = ref false in
          let rec recv () =
            let src, sport, data = Inet.Udp.recv conv in
            if Inet.Ipaddr.equal src raddr && sport = rport then data else recv ()
          in
          Ok
            ( udp_conv st ~port:(Inet.Udp.port conv) ~raddr ~rport
                ~recv:(fun () -> if !closed then "" else recv ())
                ~send:(fun data ->
                  if !closed then Error "hungup"
                  else begin
                    Inet.Udp.send conv ~dst:raddr ~dport:rport data;
                    Ok (String.length data)
                  end)
                ~close:(fun () ->
                  closed := true;
                  Inet.Udp.close conv),
              addr )
        | _, _ -> Error ("bad udp address: " ^ addr));
    pr_announce =
      (fun addr ->
        match int_of_string_opt (after_bang addr) with
        | None -> Error ("bad udp announcement: " ^ addr)
        | Some port -> (
          try
            let conv = Inet.Udp.bind ~port st in
            let eng = Inet.Udp.engine st in
            (* a dispatcher demultiplexes datagrams into one
               conversation per remote endpoint; replies go out from
               the announced port *)
            let peers :
                (int32 * int, string Sim.Mbox.t) Hashtbl.t =
              Hashtbl.create 7
            in
            let accept_q = Sim.Mbox.create eng in
            let dispatcher =
              Sim.Proc.spawn eng ~name:"udp-demux" (fun () ->
                  let rec loop () =
                    let src, sport, data = Inet.Udp.recv conv in
                    let key = (Inet.Ipaddr.to_int32 src, sport) in
                    (match Hashtbl.find_opt peers key with
                    | Some mb -> Sim.Mbox.send mb data
                    | None ->
                      let mb = Sim.Mbox.create eng in
                      Hashtbl.replace peers key mb;
                      Sim.Mbox.send mb data;
                      Sim.Mbox.send accept_q (src, sport, mb));
                    loop ()
                  in
                  loop ())
            in
            Ok
              {
                ln_accept =
                  (fun () ->
                    let src, sport, mb = Sim.Mbox.recv accept_q in
                    let key = (Inet.Ipaddr.to_int32 src, sport) in
                    let cv =
                      udp_conv st ~port ~raddr:src ~rport:sport
                        ~recv:(fun () -> Sim.Mbox.recv mb)
                        ~send:(fun data ->
                          Inet.Udp.send conv ~dst:src ~dport:sport data;
                          Ok (String.length data))
                        ~close:(fun () -> Hashtbl.remove peers key)
                    in
                    Ok
                      ( cv,
                        Printf.sprintf "%s!%d" (Inet.Ipaddr.to_string src)
                          sport ))
                ;
                ln_set_backlog = (fun _ -> Error "udp has no backlog");
                ln_status = (fun () -> "0 Announced");
                ln_close =
                  (fun () ->
                    Sim.Proc.kill dispatcher;
                    Inet.Udp.close conv);
              }
          with Invalid_argument e -> Error e));
  }

let urp_conv line conv ~remote =
  {
    cv_read = (fun ~count -> Dk.Urp.read conv count);
    cv_write =
      (fun data ->
        try
          Dk.Urp.write conv data;
          Ok (String.length data)
        with Dk.Urp.Hungup -> Error "hungup");
    cv_local = (fun () -> Dk.Switch.line_name line);
    cv_remote = (fun () -> remote);
    cv_status =
      (fun () ->
        let c = Dk.Urp.counters conv in
        Printf.sprintf "urp Established rexmit %d" c.Dk.Urp.retransmits);
    cv_stats =
      (fun () ->
        let c = Dk.Urp.counters conv in
        Printf.sprintf
          "cells_sent %d\ncells_rcvd %d\nbytes_sent %d\nbytes_rcvd %d\n\
           retransmits %d\nenqs_sent %d\ndups_dropped %d\n"
          c.Dk.Urp.cells_sent c.Dk.Urp.cells_rcvd c.Dk.Urp.bytes_sent
          c.Dk.Urp.bytes_rcvd c.Dk.Urp.retransmits c.Dk.Urp.enqs_sent
          c.Dk.Urp.dups_dropped);
    cv_close = (fun () -> Dk.Urp.close conv);
  }

let dk_proto line =
  {
    pr_name = "dk";
    pr_connect =
      (fun addr ->
        (* nj/astro/helix!9fs *)
        let dest, service = split_addr addr in
        if dest = "" then Error ("bad dk address: " ^ addr)
        else
          try
            let circ = Dk.Circuit.dial line ~dest ~service in
            Ok (urp_conv line (Dk.Urp.over circ) ~remote:addr, addr)
          with
          | Dk.Circuit.Rejected reason -> Error reason
          | Dk.Circuit.No_such_line l -> Error ("no such system: " ^ l));
    pr_announce =
      (fun addr ->
        (* service name, possibly "*" *)
        let service = after_bang addr in
        try
          let calls = Dk.Circuit.announce line ~service in
          Ok
            {
              ln_accept =
                (fun () ->
                  let inc = Sim.Mbox.recv calls in
                  let caller = Dk.Circuit.caller inc in
                  let circ = Dk.Circuit.accept inc in
                  Ok (urp_conv line (Dk.Urp.over circ) ~remote:caller, caller));
              ln_set_backlog = (fun _ -> Error "dk has no backlog");
              ln_status = (fun () -> "0 Announced");
              ln_close = (fun () -> ());
            }
        with Invalid_argument e -> Error e);
  }
