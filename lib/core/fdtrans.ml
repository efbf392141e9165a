let of_fd ?(framed = false) env fd =
  if not framed then
    {
      Ninep.Transport.t_send =
        (fun msg ->
          try ignore (Vfs.Env.write env fd msg) with Vfs.Chan.Error _ -> ());
      t_recv =
        (fun () ->
          match Vfs.Env.read env fd Ninep.Fcall.maxmsg with
          | "" -> None
          | msg -> Some msg
          | exception Vfs.Chan.Error _ -> None);
      t_close = (fun () -> Vfs.Env.close env fd);
    }
  else begin
    let splitter = Ninep.Fcall.Frame.splitter () in
    let pending = Queue.create () in
    {
      Ninep.Transport.t_send =
        (fun msg ->
          try ignore (Vfs.Env.write env fd (Ninep.Fcall.Frame.wrap msg))
          with Vfs.Chan.Error _ -> ());
      t_recv =
        (fun () ->
          let rec next () =
            match Queue.take_opt pending with
            | Some msg -> Some msg
            | None -> (
              match Vfs.Env.read env fd 8192 with
              | "" -> None
              | chunk ->
                List.iter
                  (fun m -> Queue.push m pending)
                  (Ninep.Fcall.Frame.feed splitter chunk);
                next ()
              | exception Vfs.Chan.Error _ -> None)
          in
          next ());
      t_close = (fun () -> Vfs.Env.close env fd);
    }
  end

(* the conversation's network is the directory above it, as in
   /net/tcp/3 *)
let of_conn env ~dir fd =
  let framed =
    match Filename.basename (Filename.dirname dir) with
    | "tcp" | "tcpcc" -> true
    | _ -> false
  in
  of_fd ~framed env fd
