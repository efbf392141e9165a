type command = Vfs.Env.t -> args:string list -> string

let handle_session eng commands env ~dir ~data_fd =
  (* first message: the request line *)
  let request = Vfs.Env.read env data_fd 8192 in
  match
    String.split_on_char ' ' (String.trim request)
    |> List.filter (fun w -> w <> "")
  with
  | [] -> ()
  | cmd :: args -> (
    (* from here the descriptor carries 9P: we are the client, the
       terminal's exportfs is the server *)
    let tr = Fdtrans.of_conn env ~dir data_fd in
    let client = Ninep.Client.make eng tr in
    match List.assoc_opt cmd commands with
    | None ->
      (* we cannot even report the error without the terminal's name
         space: mount it and write to its cons *)
      (try
         Ninep.Client.session client;
         Vfs.Env.ensure_dir env "/mnt/term";
         Vfs.Env.mount env client ~onto:"/mnt/term" Vfs.Ns.Repl;
         Vfs.Env.write_file env "/mnt/term/dev/cons"
           (Printf.sprintf "cpu: unknown command: %s\n" cmd)
       with Vfs.Chan.Error _ | Ninep.Client.Err _ -> ());
      Ninep.Client.hangup client
    | Some fn ->
      (try
         Ninep.Client.session client;
         Vfs.Env.ensure_dir env "/mnt/term";
         Vfs.Env.mount env client ~onto:"/mnt/term" Vfs.Ns.Repl;
         let output =
           try fn env ~args
           with
           | Vfs.Chan.Error e -> Printf.sprintf "cpu: %s: %s\n" cmd e
           | Failure e -> Printf.sprintf "cpu: %s: %s\n" cmd e
         in
         Vfs.Env.write_file env "/mnt/term/dev/cons" output
       with Vfs.Chan.Error _ | Ninep.Client.Err _ -> ());
      Ninep.Client.hangup client)

let serve host ~commands =
  let protos =
    List.filter_map
      (fun (proto, present) -> if present then Some proto else None)
      [ ("il", Option.is_some host.Host.il); ("dk", Option.is_some host.Host.dkline);
        ("tcp", Option.is_some host.Host.tcp) ]
  in
  List.iter
    (fun proto ->
      ignore
        (Listener.start host.Host.eng host.Host.env
           ~addr:(Printf.sprintf "%s!*!cpu" proto)
           ~handler:(fun env conn ~data_fd ->
             handle_session host.Host.eng commands env ~dir:conn.Dial.dir ~data_fd)))
    protos

let cpu eng env ~host ~cmd ?(args = []) () =
  (* the terminal's side: dial, send the request, serve our own name
     space until the CPU server hangs up, then collect the output the
     server wrote into our cons *)
  Vfs.Env.ensure_dir env "/dev";
  Vfs.Env.write_file env "/dev/cons" "";
  let conn = Dial.dial env (Printf.sprintf "net!%s!cpu" host) in
  ignore
    (Vfs.Env.write env conn.Dial.data_fd (String.concat " " (cmd :: args)));
  let tr = Fdtrans.of_conn env ~dir:conn.Dial.dir conn.Dial.data_fd in
  let srv = Exportfs.serve eng env tr in
  Sim.Proc.join srv;
  Vfs.Env.close env conn.Dial.ctl_fd;
  Vfs.Env.read_file env "/dev/cons"
