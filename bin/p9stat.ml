(* p9stat — network status the Plan 9 way: everything below comes from
   reading files under /net, exactly as a user at a terminal would with
   cat(1).

   Boots the built-in bell-labs world with the kernel trace attached,
   makes an IL call so there is a live conversation to look at, then
   prints the interface counters, every conversation's status line, and
   (optionally) per-connection stats and the tail of /net/log.

     p9stat                       # status lines for every conversation
     p9stat -v                    # ... plus each conversation's stats
     p9stat -l 20                 # ... plus the last 20 trace events   *)

open Cmdliner

let seed =
  Arg.(
    value
    & opt int 0
    & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

let verbose =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ]
        ~doc:"Also print each conversation's stats file.")

let log_lines =
  Arg.(
    value
    & opt int 0
    & info [ "l"; "log" ] ~docv:"N"
        ~doc:"Also print the last N lines of /net/log.")

let metrics =
  Arg.(
    value & flag
    & info [ "m"; "metrics" ]
        ~doc:"Sample counters during the run and print /net/metrics \
              (Prometheus-style name value ts lines).")

let hostname =
  Arg.(
    value
    & opt string "musca"
    & info [ "host" ] ~docv:"SYS"
        ~doc:"Report from this system's /net (it dials helix's echo \
              service for a live conversation).")

let protos = [ "il"; "tcp"; "udp"; "dk" ]

let run seed verbose log_lines metrics hostname =
  let w = P9net.World.bell_labs ~seed () in
  let tr = Obs.Trace.create () in
  Sim.Engine.attach_obs w.P9net.World.eng tr;
  let out = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string out) fmt in
  (match P9net.World.host w hostname with
  | exception Not_found ->
    Printf.eprintf "p9stat: no such system: %s\n" hostname;
    exit 1
  | h ->
    ignore
      (P9net.Host.spawn h "p9stat" (fun env ->
           if metrics then begin
             (* arm the sampler before any traffic happens *)
             let fd = Vfs.Env.open_ env "/net/metrics" Ninep.Fcall.Ordwr in
             ignore (Vfs.Env.write env fd "start 0.25");
             Vfs.Env.close env fd
           end;
           let conn = P9net.Dial.dial env "il!helix!echo" in
           ignore (Vfs.Env.write env conn.P9net.Dial.data_fd "ping");
           ignore (Vfs.Env.read env conn.P9net.Dial.data_fd 4096);
           add "# %s: /net/ipifc\n" hostname;
           (try add "%s" (Vfs.Env.read_file env "/net/ipifc")
            with _ -> add "no ip interface\n");
           List.iter
             (fun proto ->
               match Vfs.Env.ls env ("/net/" ^ proto) with
               | exception _ -> ()
               | entries ->
                 List.iter
                   (fun d ->
                     let n = d.Ninep.Fcall.d_name in
                     if n <> "clone" then begin
                       let dir = Printf.sprintf "/net/%s/%s" proto n in
                       (try
                          add "%s" (Vfs.Env.read_file env (dir ^ "/status"))
                        with _ -> ());
                       if verbose then
                         try
                           Vfs.Env.read_file env (dir ^ "/stats")
                           |> String.split_on_char '\n'
                           |> List.iter (fun line ->
                                  if line <> "" then add "  %s\n" line)
                         with _ -> ()
                     end)
                   entries)
             protos;
           if log_lines > 0 then begin
             add "# /net/log\n";
             try
               let fd = Vfs.Env.open_ env "/net/log" Ninep.Fcall.Ordwr in
               ignore
                 (Vfs.Env.write env fd (Printf.sprintf "limit %d" log_lines));
               Vfs.Env.seek env fd 0L;
               let rec go () =
                 let data = Vfs.Env.read env fd 8192 in
                 if data <> "" then begin
                   add "%s" data;
                   go ()
                 end
               in
               go ();
               Vfs.Env.close env fd
             with _ -> add "no log\n"
           end;
           if metrics then begin
             add "# /net/metrics\n";
             try
               let fd = Vfs.Env.open_ env "/net/metrics" Ninep.Fcall.Ordwr in
               ignore (Vfs.Env.write env fd "sample");
               Vfs.Env.seek env fd 0L;
               let rec go () =
                 let data = Vfs.Env.read env fd 8192 in
                 if data <> "" then begin
                   add "%s" data;
                   go ()
                 end
               in
               go ();
               ignore (Vfs.Env.write env fd "stop");
               Vfs.Env.close env fd
             with _ -> add "no metrics\n"
           end;
           P9net.Dial.hangup env conn));
    P9net.World.run ~until:60.0 w;
    print_string (Buffer.contents out));
  `Ok ()

let cmd =
  let doc = "print network status by reading files under /net" in
  Cmd.v
    (Cmd.info "p9stat" ~doc)
    Term.(ret (const run $ seed $ verbose $ log_lines $ metrics $ hostname))

let () = exit (Cmd.eval cmd)
