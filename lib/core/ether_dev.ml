module Port = Inet.Etherport

(* The directories are the driver's own connections, the kernel's (IP,
   ARP) included, so the tree shows the whole interface (Figure 1); a
   kernel connection has no read queue and its data and ctl are not the
   device's. *)
type node = Port.conn Ninep.Devtab.node

let ctl_write c text =
  let words =
    String.split_on_char ' ' (String.trim text)
    |> List.filter (fun w -> w <> "")
  in
  match words with
  | [ "connect"; ty ] -> (
    match int_of_string_opt ty with
    | Some ty ->
      Port.set_conn_type c ty;
      Ok ()
    | None -> Error ("bad packet type: " ^ ty))
  | [ "promiscuous" ] ->
    Port.set_promiscuous c true;
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
      (text "ctl" (fun c -> string_of_int (Port.conn_id c))) with
      write =
        (fun n data ->
          let c = conv n in
          if Port.rq c = None then kernel
          else Result.map (fun () -> String.length data) (ctl_write c data));
    };
    {
      Ninep.Devtab.file with
      name = "data";
      read =
        (fun n ~offset:_ ~count ->
          match Port.rq (conv n) with
          | Some q -> Ok (Block.Q.read q count)
          | None -> kernel);
      write =
        (fun n data ->
          let c = conv n in
          if Port.rq c = None then kernel
          else
            match parse_dst data with
            | Some (dst, payload) ->
              Port.send c ~dst payload;
              Ok (String.length data)
            | None -> Error "bad frame: want 12 hex digit destination");
    };
    text "stats" (fun c -> Port.stats_text (Port.driver c));
    text "type" (fun c -> string_of_int (Port.conn_type c) ^ "\n");
  |]

let fs port =
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
            open_ = (fun n -> Ninep.Devtab.redirect n (Port.clone port) "ctl");
          };
        |];
      convs =
        {
          conv_files;
          number = Port.conn_id;
          find = Port.find port;
          listing = (fun () -> Port.conns port);
          hold = Port.hold;
          release = Port.release;
        };
    }

let mount env port ~name =
  Vfs.Env.ensure_dir env ("/net/" ^ name);
  Vfs.Env.mount_fs env (fs port) ~onto:("/net/" ^ name) Vfs.Ns.Repl

let render_tree port =
  let conns = Port.conns port in
  let b = Buffer.create 256 in
  Buffer.add_string b "ether\n";
  Buffer.add_string b "|-- clone\n";
  List.iteri
    (fun i c ->
      let last = i = List.length conns - 1 in
      let branch = if last then "`--" else "|--" in
      let stem = if last then "    " else "|   " in
      Buffer.add_string b
        (Printf.sprintf "%s %d (type %d)\n" branch (Port.conn_id c)
           (Port.conn_type c));
      List.iteri
        (fun j f ->
          let fl = if j = 3 then "`--" else "|--" in
          Buffer.add_string b (Printf.sprintf "%s %s %s\n" stem fl f))
        [ "ctl"; "data"; "stats"; "type" ])
    conns;
  Buffer.contents b
