type 'c conv_ops = {
  cv_read : 'c -> count:int -> string;
  cv_write : 'c -> string -> (int, string) result;
  cv_local : 'c -> string;
  cv_remote : 'c -> string;
  cv_status : 'c -> string;
  cv_stats : 'c -> string;
  cv_close : 'c -> unit;
  cv_hangup : 'c -> unit;  (* close for ctl "hangup": ends blocked reads *)
}

type conv = Conv : 'c conv_ops * 'c -> conv

type listener_ops = {
  ln_accept : unit -> (conv, string) result;
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
  pr_connect : string -> (conv, string) result;
  pr_announce : string -> (listener_ops, string) result;
}

type conn_state =
  | Idle
  | Announced of listener_ops * string  (* announce address *)
  | Connected of conv
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

let close_conn ?(hangup = false) c =
  (match c.state with
  | Connected (Conv (ops, cv)) ->
    if hangup then ops.cv_hangup cv else ops.cv_close cv
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
    | Ok cv ->
      c.state <- Connected cv;
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
    close_conn ~hangup:true c;
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
          | Connected (Conv (ops, cv)) -> Ok (ops.cv_read cv ~count)
          | Idle | Announced _ | Hungup -> Error "not connected");
      write =
        (fun n data ->
          match (conv n).state with
          | Connected (Conv (ops, cv)) -> ops.cv_write cv data
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
            | Ok cv ->
              let nc = alloc_conn c.dev in
              nc.state <- Connected cv;
              (* the returned descriptor points at the new
                 conversation's ctl *)
              Ninep.Devtab.redirect n nc "ctl"
            | Error e -> Error e)
          | Idle | Connected _ | Hungup -> Error "not announced");
    };
    text "local" (fun c ->
        match c.state with
        | Connected (Conv (ops, cv)) -> ops.cv_local cv ^ "\n"
        | Announced (_, addr) -> addr ^ "\n"
        | Idle | Hungup -> "\n");
    text "remote" (fun c ->
        match c.state with
        | Connected (Conv (ops, cv)) -> ops.cv_remote cv ^ "\n"
        | Announced _ | Idle | Hungup -> "\n");
    text "status" (fun c ->
        let name = c.dev.proto.pr_name in
        (match c.state with
        | Connected (Conv (ops, cv)) -> ops.cv_status cv
        | Announced (ln, _) -> Printf.sprintf "%s/%d %s" name c.id (ln.ln_status ())
        | Idle -> Printf.sprintf "%s/%d 0 Closed" name c.id
        | Hungup -> Printf.sprintf "%s/%d 0 Hungup" name c.id)
        ^ "\n");
    text "stats" (fun c ->
        match c.state with
        | Connected (Conv (ops, cv)) -> ops.cv_stats cv
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

(* the IP transports: every call goes through the conversation core
   and the protocol's function table *)
let ip_proto st =
  let name = Inet.Conv.name st and pr = Inet.Conv.proto st in
  (* the paper's transcripts show "address port" *)
  let addr a port = Printf.sprintf "%s %d" (Inet.Ipaddr.to_string a) port in
  let ops =
    {
      cv_read = (fun c ~count -> pr.read c count);
      cv_write =
        (fun c data ->
          match pr.write c data with
          | () -> Ok (String.length data)
          | exception Inet.Conv.Hungup -> Error "hungup");
      cv_local = (fun c -> addr (Inet.Conv.local_addr st) (pr.ep c).lport);
      cv_remote = (fun c -> addr (pr.ep c).raddr (pr.ep c).rport);
      cv_status = pr.status;
      cv_stats = pr.stats;
      cv_close = pr.close;
      cv_hangup = Inet.Conv.shutdown st;
    }
  in
  {
    pr_name = name;
    pr_connect =
      (fun addr ->
        let host, port = split_addr addr in
        match (Inet.Ipaddr.of_string_opt host, int_of_string_opt port) with
        | Some raddr, Some rport -> (
          try Ok (Conv (ops, Inet.Conv.connect st ~raddr ~rport)) with
          | Inet.Conv.Refused e | Inet.Conv.Timeout e -> Error e
          | Inet.Conv.Port_exhausted -> Error "no free local ports")
        | _, _ -> Error (Printf.sprintf "bad %s address: %s" name addr));
    pr_announce =
      (fun addr ->
        match int_of_string_opt (after_bang addr) with
        | None -> Error (Printf.sprintf "bad %s announcement: %s" name addr)
        | Some port -> (
          try
            let lis = Inet.Conv.announce st ~port in
            Ok
              {
                ln_accept = (fun () -> Ok (Conv (ops, Inet.Conv.listen lis)));
                ln_set_backlog =
                  (fun n ->
                    Inet.Conv.set_backlog lis n;
                    Ok ());
                ln_status =
                  (fun () ->
                    Printf.sprintf "%d Announced backlog %d queued %d refused %d"
                      port (Inet.Conv.backlog lis) (Inet.Conv.queued lis)
                      (Inet.Conv.refused lis));
                ln_close = (fun () -> Inet.Conv.close_listener lis);
              }
          with Invalid_argument e -> Error e));
  }

(* a URP conversation over a Datakit circuit *)
type urp = { line : Dk.Switch.line; urp : Dk.Urp.conv; remote : string }

let urp_ops =
  {
    cv_read = (fun u ~count -> Dk.Urp.read u.urp count);
    cv_write =
      (fun u data ->
        try
          Dk.Urp.write u.urp data;
          Ok (String.length data)
        with Dk.Urp.Hungup -> Error "hungup");
    cv_local = (fun u -> Dk.Switch.line_name u.line);
    cv_remote = (fun u -> u.remote);
    cv_status =
      (fun u ->
        let c = Dk.Urp.counters u.urp in
        Printf.sprintf "urp Established rexmit %d" c.Dk.Urp.retransmits);
    cv_stats =
      (fun u ->
        let c = Dk.Urp.counters u.urp in
        Printf.sprintf
          "cells_sent %d\ncells_rcvd %d\nbytes_sent %d\nbytes_rcvd %d\n\
           retransmits %d\nenqs_sent %d\ndups_dropped %d\n"
          c.Dk.Urp.cells_sent c.Dk.Urp.cells_rcvd c.Dk.Urp.bytes_sent
          c.Dk.Urp.bytes_rcvd c.Dk.Urp.retransmits c.Dk.Urp.enqs_sent
          c.Dk.Urp.dups_dropped);
    cv_close = (fun u -> Dk.Urp.close u.urp);
    cv_hangup = (fun u -> Dk.Urp.close u.urp);
  }

let urp_conv line circ ~remote =
  Conv (urp_ops, { line; urp = Dk.Urp.over circ; remote })

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
            Ok (urp_conv line circ ~remote:addr)
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
                  Ok (urp_conv line circ ~remote:caller));
              ln_set_backlog = (fun _ -> Error "dk has no backlog");
              ln_status = (fun () -> "0 Announced");
              ln_close = (fun () -> ());
            }
        with Invalid_argument e -> Error e);
  }
