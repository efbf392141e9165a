type conn = {
  id : int;
  dev : dev;
  port_conn : Inet.Etherport.conn;
  (* [Some q] for connections created through the clone file; [None]
     for the kernel's own connections (IP, ARP), which are visible in
     the tree but whose data belongs to the kernel *)
  rq : Block.Q.t option;
  mutable users : int;
}

and dev = {
  port : Inet.Etherport.t;
  conns : (int, conn) Hashtbl.t;  (* every conn we have exposed *)
}

type node = conn Ninep.Devtab.node

let hex_of_frame (fr : Netsim.Ether.frame) =
  Netsim.Eaddr.to_string fr.Netsim.Ether.src ^ fr.Netsim.Ether.payload

let alloc_conn dev =
  let eng = Inet.Etherport.engine dev.port in
  let port_conn = Inet.Etherport.connect dev.port 0 in
  let id = Inet.Etherport.conn_id port_conn in
  let q = Block.Q.create ~limit:(128 * 1024) eng in
  let c = { id; dev; port_conn; rq = Some q; users = 0 } in
  Inet.Etherport.set_rx port_conn (fun fr ->
      (* drop when the reader is slow, like real hardware *)
      ignore (Block.Q.try_put q (Block.make ~delim:true (hex_of_frame fr))));
  Hashtbl.replace dev.conns id c;
  c

(* the kernel's own connections are exposed read-only under their
   driver ids, so the tree shows the whole interface (Figure 1) *)
let lookup_conn dev id =
  match Hashtbl.find_opt dev.conns id with
  | Some c -> Some c
  | None ->
    List.find_opt
      (fun pc -> Inet.Etherport.conn_id pc = id)
      (Inet.Etherport.conns dev.port)
    |> Option.map (fun pc ->
           let c = { id; dev; port_conn = pc; rq = None; users = 0 } in
           Hashtbl.replace dev.conns id c;
           c)

let release c =
  match c.rq with
  | None -> () (* not ours to close *)
  | Some q ->
    c.users <- c.users - 1;
    if c.users <= 0 then begin
      Inet.Etherport.close_conn c.port_conn;
      Block.Q.close q;
      Hashtbl.remove c.dev.conns c.id
    end

let ctl_write c text =
  let words =
    String.split_on_char ' ' (String.trim text)
    |> List.filter (fun w -> w <> "")
  in
  match words with
  | [ "connect"; ty ] -> (
    match int_of_string_opt ty with
    | Some ty ->
      Inet.Etherport.set_conn_type c.port_conn ty;
      Ok ()
    | None -> Error ("bad packet type: " ^ ty))
  | [ "promiscuous" ] ->
    Inet.Etherport.set_promiscuous c.port_conn true;
    Ok ()
  | _ -> Error ("bad control message: " ^ String.trim text)

let parse_dst data =
  if String.length data < 12 then None
  else
    match Netsim.Eaddr.of_string (String.sub data 0 12) with
    | dst -> Some (dst, String.sub data 12 (String.length data - 12))
    | exception Invalid_argument _ -> None

let conv = Ninep.Devtab.conv
let kernel = Error "connection belongs to the kernel"

let text name f =
  {
    Ninep.Devtab.file with
    name;
    read = (fun n ~offset ~count -> Ok (Ninep.Server.slice (f (conv n)) ~offset ~count));
  }

(* the files of every connection directory, shared by every interface *)
let conv_files =
  [|
    {
      (text "ctl" (fun c -> string_of_int c.id)) with
      write =
        (fun n data ->
          let c = conv n in
          if c.rq = None then kernel
          else Result.map (fun () -> String.length data) (ctl_write c data));
    };
    {
      Ninep.Devtab.file with
      name = "data";
      read =
        (fun n ~offset:_ ~count ->
          match (conv n).rq with
          | Some q -> Ok (Block.Q.read q count)
          | None -> kernel);
      write =
        (fun n data ->
          let c = conv n in
          if c.rq = None then kernel
          else
            match parse_dst data with
            | Some (dst, payload) ->
              Inet.Etherport.send c.port_conn ~dst payload;
              Ok (String.length data)
            | None -> Error "bad frame: want 12 hex digit destination");
    };
    text "stats" (fun c -> Inet.Etherport.stats_text c.dev.port);
    text "type" (fun c -> string_of_int (Inet.Etherport.conn_type c.port_conn) ^ "\n");
  |]

let fs port =
  let dev = { port; conns = Hashtbl.create 17 } in
  Ninep.Devtab.fs
    {
      Ninep.Devtab.table with
      fs_name = "etherdev";
      owner = "bootes";
      letter = 'l';
      top =
        [|
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
          find = lookup_conn dev;
          listing =
            (fun () ->
              (* every live driver connection appears, kernel-owned
                 included *)
              List.map Inet.Etherport.conn_id (Inet.Etherport.conns dev.port)
              |> List.sort compare
              |> List.filter_map (lookup_conn dev));
          hold = (fun c -> c.users <- c.users + 1);
          release;
        };
    }

let mount env port ~name =
  Vfs.Env.ensure_dir env ("/net/" ^ name);
  Vfs.Env.mount_fs env (fs port) ~onto:("/net/" ^ name) Vfs.Ns.Repl

let render_tree port =
  let conns = Inet.Etherport.conns port in
  let b = Buffer.create 256 in
  Buffer.add_string b "ether\n";
  Buffer.add_string b "|-- clone\n";
  List.iteri
    (fun i c ->
      let last = i = List.length conns - 1 in
      let branch = if last then "`--" else "|--" in
      let stem = if last then "    " else "|   " in
      Buffer.add_string b
        (Printf.sprintf "%s %d (type %d)\n" branch (Inet.Etherport.conn_id c)
           (Inet.Etherport.conn_type c));
      List.iteri
        (fun j f ->
          let fl = if j = 3 then "`--" else "|--" in
          Buffer.add_string b (Printf.sprintf "%s %s %s\n" stem fl f))
        [ "ctl"; "data"; "stats"; "type" ])
    conns;
  Buffer.contents b
