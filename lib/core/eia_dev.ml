type node = unit Ninep.Devtab.node

let ctl_write line rq text =
  let cmd = String.trim text in
  if String.length cmd >= 2 && cmd.[0] = 'b' then
    match int_of_string_opt (String.sub cmd 1 (String.length cmd - 1)) with
    | Some baud when baud > 0 ->
      Netsim.Link.set_rate line (float_of_int baud);
      Ok ()
    | Some _ | None -> Error ("bad baud rate: " ^ cmd)
  else if cmd = "f" then begin
    (* flush pending input *)
    let rec drain () =
      if Block.Q.blocks rq > 0 then begin
        ignore (Block.Q.read rq 4096);
        drain ()
      end
    in
    drain ();
    Ok ()
  end
  else Error ("bad control message: " ^ cmd)

let fs ~index line =
  let eng = Netsim.Link.engine line in
  (* received bytes; a plain byte stream *)
  let rq = Block.Q.create ~limit:(64 * 1024) eng in
  (* interrupt side: queue the arriving bytes, dropping on overflow
     like a real UART fifo *)
  Netsim.Link.set_rx line (fun bytes ->
      ignore (Block.Q.try_put rq (Block.make bytes)));
  let name = Printf.sprintf "eia%d" index in
  Ninep.Devtab.fs
    {
      Ninep.Devtab.table with
      fs_name = name;
      owner = "bootes";
      letter = 't';
      top =
        [|
          {
            Ninep.Devtab.file with
            name;
            read = (fun _ ~offset:_ ~count -> Ok (Block.Q.read rq count));
            write =
              (fun _ data ->
                Netsim.Link.send line data;
                Ok (String.length data));
          };
          {
            Ninep.Devtab.file with
            name = name ^ "ctl";
            read =
              (fun _ ~offset ~count ->
                let baud = int_of_float (Netsim.Link.rate line) in
                Ok
                  (Ninep.Server.slice (Printf.sprintf "b%d\n" baud) ~offset
                     ~count));
            write =
              (fun _ data ->
                Result.map (fun () -> String.length data) (ctl_write line rq data));
          };
        |];
    }

(* 9P straight over the wire: a serial line preserves bytes, not
   message boundaries, so each message travels length-prefixed and a
   stateful splitter reassembles them on receive (exactly the TCP
   treatment from Fcall.Frame). *)
let transport line =
  let eng = Netsim.Link.engine line in
  let inbox : string option Sim.Mbox.t = Sim.Mbox.create eng in
  let sp = Ninep.Fcall.Frame.splitter () in
  let closed = ref false in
  Netsim.Link.set_rx line (fun bytes ->
      List.iter
        (fun msg -> Sim.Mbox.send inbox (Some msg))
        (Ninep.Fcall.Frame.feed sp bytes));
  {
    Ninep.Transport.t_send =
      (fun msg ->
        if not !closed then
          Netsim.Link.send line (Ninep.Fcall.Frame.wrap msg));
    t_recv = (fun () -> if !closed then None else Sim.Mbox.recv inbox);
    t_close =
      (fun () ->
        if not !closed then begin
          closed := true;
          Sim.Mbox.send inbox None
        end);
  }

let mount env ~index line =
  Vfs.Env.ensure_dir env "/dev";
  Vfs.Env.mount_fs env (fs ~index line) ~onto:"/dev" Vfs.Ns.After
