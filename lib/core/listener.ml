(* a peer's fault, counted only when it happens *)
let bump eng name =
  match Sim.Engine.obs eng with
  | None -> ()
  | Some tr -> Obs.Trace.bump tr name 1

let start eng ?backlog env ~addr ~handler =
  Sim.Proc.spawn eng ~name:("listen:" ^ addr) (fun () ->
      let ann = Dial.announce env addr in
      (match backlog with
      | None -> ()
      | Some n ->
        (* best effort: protocols without a bounded accept queue
           reject the ctl message, which is fine *)
        (try
           ignore
             (Vfs.Env.write env ann.Dial.ann_ctl_fd
                (Printf.sprintf "backlog %d" n))
         with Vfs.Chan.Error _ -> ()));
      let rec loop () =
        match Dial.listen env ann with
        | conn ->
          (* fork a process to serve the call; the parent closes its
             copy of the descriptor, as in the paper's echo listing *)
          let child_env = Vfs.Env.fork env in
          ignore
            (Sim.Proc.spawn eng ~name:("serve:" ^ addr) (fun () ->
                 match Dial.accept child_env conn with
                 | data_fd ->
                   Fun.protect
                     ~finally:(fun () ->
                       Vfs.Env.close child_env data_fd;
                       Vfs.Env.close child_env conn.Dial.ctl_fd)
                     (fun () -> handler child_env conn ~data_fd)
                 | exception Dial.Dial_error _ ->
                   Vfs.Env.close child_env conn.Dial.ctl_fd;
                   bump eng "listener.accept_err"));
          Vfs.Env.close env conn.Dial.ctl_fd;
          loop ()
        | exception Dial.Dial_error _ -> bump eng "listener.listen_err"
      in
      loop ())
