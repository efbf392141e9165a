(* snoopy — the paper's promiscuous Ethernet tap as a command.

   Boots the built-in bell-labs world with a tap on the segment,
   drives a little representative traffic (ARP, IL, UDP, TCP, and 9P
   over IL), and
   prints one line per captured frame:

     snoopy                       # every frame, rendered
     snoopy --stats               # per-protocol frame counts
     snoopy -s 7 -t 30           # different seed / horizon            *)

open Cmdliner

let seed =
  Arg.(
    value
    & opt int 0
    & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

let horizon =
  Arg.(
    value
    & opt float 60.0
    & info [ "t"; "time" ] ~docv:"SECS"
        ~doc:"Virtual seconds to let the world run.")

let stats_only =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Print per-protocol frame counts only.")

(* enough traffic to put every frame type on the wire: ARP resolution
   happens implicitly, then an IL echo, a UDP datagram, a TCP echo, and
   last an import over IL that reads one file, whose frames the tap
   labels with their 9P messages *)
let drive w =
  let musca = P9net.World.host w "musca" in
  let helix = P9net.World.host w "helix" in
  Ninep.Ramfs.add_file helix.P9net.Host.root "/tmp/motd" "hello\n";
  ignore
    (P9net.Host.spawn helix "udp-sink" (fun env ->
         let ann = P9net.Dial.announce env "udp!*!3049" in
         let conn = P9net.Dial.listen env ann in
         let dfd = P9net.Dial.accept env conn in
         ignore (Vfs.Env.write env dfd (Vfs.Env.read env dfd 4096))));
  ignore
    (P9net.Host.spawn musca "traffic" (fun env ->
         let echo proto =
           let conn =
             P9net.Dial.dial env (Printf.sprintf "%s!helix!echo" proto)
           in
           ignore (Vfs.Env.write env conn.P9net.Dial.data_fd "ping");
           ignore (Vfs.Env.read env conn.P9net.Dial.data_fd 4096);
           P9net.Dial.hangup env conn
         in
         echo "il";
         let conn = P9net.Dial.dial env "udp!135.104.9.31!3049" in
         ignore (Vfs.Env.write env conn.P9net.Dial.data_fd "dgram");
         ignore (Vfs.Env.read env conn.P9net.Dial.data_fd 4096);
         P9net.Dial.hangup env conn;
         echo "tcp";
         P9net.Exportfs.import w.P9net.World.eng env ~proto:"il"
           ~host:"helix" ~remote_root:"/tmp" ~onto:"/n" ~flag:Vfs.Ns.Repl ();
         ignore (Vfs.Env.read_file env "/n/motd")))

let run seed horizon stats_only =
  let w = P9net.World.bell_labs ~seed () in
  let tap = P9net.Snoop.start w.P9net.World.ether in
  drive w;
  P9net.World.run ~until:horizon w;
  if stats_only then print_string (P9net.Snoop.summary tap)
  else print_string (P9net.Snoop.dump tap);
  `Ok ()

let cmd =
  let doc = "watch every frame on the simulated Ethernet, like snoopy" in
  Cmd.v
    (Cmd.info "snoopy" ~doc)
    Term.(ret (const run $ seed $ horizon $ stats_only))

let () = exit (Cmd.eval cmd)
