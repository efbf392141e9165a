(* The caching file-server proxy on a slow line (Plan 9's cfs).

   A terminal reaches its file server over a 9600-baud serial link —
   the paper's diskless-gnot-at-home configuration.  Interposing Cfs
   on the 9P stream makes the second read of everything free: blocks
   are validated by qid.vers, so the cache never serves stale data.

   Run with:  dune exec examples/cfs_slowlink.exe *)

let () =
  let w = P9net.World.bell_labs () in
  let gnot = P9net.World.host w "philw-gnot" in
  let eng = w.P9net.World.eng in

  (* the far end of the phone line: a file server speaking 9P straight
     over the wire *)
  let term_end, srv_end =
    Netsim.Link.create_pair ~rate:9600. ~byte_bits:10 ~latency:0. eng
  in
  let fsroot = Ninep.Ramfs.make ~owner:"bootes" ~name:"fs" () in
  Ninep.Ramfs.add_file fsroot "/lib/namespace"
    (String.concat "\n"
       [ "mount -a #s/boot /"; "bind -a #l /net"; "bind -c #e /env"; "" ]);
  Ninep.Ramfs.add_file fsroot "/rc/lib/rcmain" (String.make 1200 'r');
  Ninep.Ramfs.add_file fsroot "/bin/rc" (String.make 6100 'x');
  ignore
    (Ninep.Server.serve eng (Ninep.Ramfs.fs fsroot)
       (P9net.Eia_dev.transport srv_end));

  (* the mount point *)
  Ninep.Ramfs.mkdir gnot.P9net.Host.root "/n/fs";

  ignore
    (P9net.Host.spawn gnot "boot" (fun env ->
         print_endline "gnot% mount -c #Ccfs /n/fs   # cached mount, 9600 baud";
         let cache =
           P9net.Host.mount_cached gnot ~env
             ~upstream:(P9net.Eia_dev.transport term_end)
             ~onto:"/n/fs" Vfs.Ns.Repl
         in
         let timed_read path =
           let t0 = Sim.Engine.now eng in
           let data = Vfs.Env.read_file env path in
           (String.length data, Sim.Engine.now eng -. t0)
         in
         List.iter
           (fun path ->
             let n1, cold = timed_read path in
             let _, warm = timed_read path in
             Printf.printf
               "gnot%% cat %-20s %5d bytes   cold %6.2fs   warm %6.2fs\n" path
               n1 cold warm)
           [ "/n/fs/lib/namespace"; "/n/fs/rc/lib/rcmain"; "/n/fs/bin/rc" ];

         (* the cache explains itself, Plan 9 style *)
         print_endline "gnot% cat /mnt/cfs/status";
         print_string (Vfs.Env.read_file env "/mnt/cfs/status");
         print_endline "gnot% cat /mnt/cfs/stats";
         print_string (Vfs.Env.read_file env "/mnt/cfs/stats");

         (* and the mount driver keeps its own per-mount RPC ledger *)
         print_endline "gnot% ls /dev/mnt";
         List.iter
           (fun d -> Printf.printf "/dev/mnt/%s\n" d.Ninep.Fcall.d_name)
           (Vfs.Env.ls env "/dev/mnt");
         print_endline "gnot% cat /dev/mnt/0/mountpoint";
         print_string (Vfs.Env.read_file env "/dev/mnt/0/mountpoint");
         print_endline "gnot% cat /dev/mnt/0/stats";
         print_string (Vfs.Env.read_file env "/dev/mnt/0/stats");
         ignore cache));

  P9net.World.run ~until:300.0 w;
  print_endline "cfs_slowlink done."
