(* Tests for the user-level services of section 6: cpu, ftpfs, and the
   eia (UART) device of section 2.2. *)

module F = Ninep.Fcall

let in_world ?(horizon = 240.0) ?cpu_commands ~from f =
  Util.in_world ~horizon ?cpu_commands ~from f

(* ---- the cpu service ---- *)

let standard_commands =
  [
    ( "hostname",
      fun _env ~args:_ -> "helix\n" );
    ( "echo",
      fun _env ~args -> String.concat " " args ^ "\n" );
    ( "wc",
      (* reads a file from the TERMINAL's name space: the whole point *)
      fun env ~args ->
        match args with
        | [ path ] ->
          let data = Vfs.Env.read_file env ("/mnt/term" ^ path) in
          Printf.sprintf "%d chars\n" (String.length data)
        | _ -> "usage: wc file\n" );
    ( "tee",
      (* writes into the terminal's name space *)
      fun env ~args ->
        match args with
        | [ path; content ] ->
          Vfs.Env.write_file env ("/mnt/term" ^ path) content;
          "written\n"
        | _ -> "usage: tee file content\n" );
  ]

let with_cpu_world f =
  in_world ~cpu_commands:standard_commands ~from:"philw-gnot" (fun w env ->
      Sim.Time.sleep w.P9net.World.eng 0.1;
      f w env)

let test_cpu_simple_command () =
  with_cpu_world (fun w env ->
      let out =
        P9net.Cpu_cmd.cpu w.P9net.World.eng env ~host:"helix" ~cmd:"hostname"
          ()
      in
      Alcotest.(check string) "ran remotely" "helix\n" out)

let test_cpu_args () =
  with_cpu_world (fun w env ->
      let out =
        P9net.Cpu_cmd.cpu w.P9net.World.eng env ~host:"helix" ~cmd:"echo"
          ~args:[ "a"; "b"; "c" ] ()
      in
      Alcotest.(check string) "args passed" "a b c\n" out)

let test_cpu_reads_terminal_namespace () =
  with_cpu_world (fun w env ->
      (* the terminal-local file the remote command must see *)
      Vfs.Env.write_file env "/tmp/doc" "0123456789";
      let out =
        P9net.Cpu_cmd.cpu w.P9net.World.eng env ~host:"helix" ~cmd:"wc"
          ~args:[ "/tmp/doc" ] ()
      in
      Alcotest.(check string) "remote process read our file" "10 chars\n" out)

let test_cpu_writes_terminal_namespace () =
  with_cpu_world (fun w env ->
      Vfs.Env.write_file env "/tmp/out" "";
      let out =
        P9net.Cpu_cmd.cpu w.P9net.World.eng env ~host:"helix" ~cmd:"tee"
          ~args:[ "/tmp/out"; "fromhelix" ] ()
      in
      Alcotest.(check string) "ack" "written\n" out;
      Alcotest.(check string) "file landed on the terminal" "fromhelix"
        (Vfs.Env.read_file env "/tmp/out"))

let test_cpu_unknown_command () =
  with_cpu_world (fun w env ->
      let out =
        P9net.Cpu_cmd.cpu w.P9net.World.eng env ~host:"helix" ~cmd:"zork" ()
      in
      Alcotest.(check string) "error reported via cons"
        "cpu: unknown command: zork\n" out)

let test_cpu_from_ether_host () =
  (* also works over IL, not just Datakit *)
  in_world ~cpu_commands:standard_commands ~from:"musca" (fun w env ->
      Sim.Time.sleep w.P9net.World.eng 0.1;
      let out =
        P9net.Cpu_cmd.cpu w.P9net.World.eng env ~host:"helix" ~cmd:"hostname"
          ()
      in
      Alcotest.(check string) "over il" "helix\n" out)

(* ---- ftpfs ---- *)

let with_ftp f =
  in_world ~from:"musca" (fun w env ->
      let helix = P9net.World.host w "helix" in
      Ninep.Ramfs.add_file helix.P9net.Host.root "/usr/doc/readme"
        "files are the interface";
      Ninep.Ramfs.add_file helix.P9net.Host.root "/usr/doc/paper.ms"
        "The Organization of Networks in Plan 9";
      Ninep.Ramfs.mkdir helix.P9net.Host.root "/usr/incoming";
      P9net.Ftp.serve helix;
      Sim.Time.sleep helix.P9net.Host.eng 0.1;
      Ninep.Ramfs.mkdir (P9net.World.host w "musca").P9net.Host.root "/n/ftp";
      let mp = P9net.Ftp.mount env ~host:"helix" ~onto:"/n/ftp" () in
      f w env mp)

let names entries = List.map (fun d -> d.F.d_name) entries

let test_ftpfs_ls () =
  with_ftp (fun _w env _mp ->
      Alcotest.(check (list string)) "remote root listing"
        [ "dev"; "lib"; "mnt"; "n"; "net"; "tmp"; "usr" ]
        (names (Vfs.Env.ls env "/n/ftp"));
      Alcotest.(check (list string)) "subdir"
        [ "paper.ms"; "readme" ]
        (names (Vfs.Env.ls env "/n/ftp/usr/doc")))

let test_ftpfs_read () =
  with_ftp (fun _w env _mp ->
      Alcotest.(check string) "file contents"
        "files are the interface"
        (Vfs.Env.read_file env "/n/ftp/usr/doc/readme"))

let test_ftpfs_cache () =
  with_ftp (fun _w env mp ->
      ignore (Vfs.Env.read_file env "/n/ftp/usr/doc/readme");
      let before = (P9net.Ftp.counters mp).P9net.Ftp.ftp_commands in
      ignore (Vfs.Env.read_file env "/n/ftp/usr/doc/readme");
      ignore (Vfs.Env.read_file env "/n/ftp/usr/doc/readme");
      Alcotest.(check int) "no further wire traffic" before
        (P9net.Ftp.counters mp).P9net.Ftp.ftp_commands;
      Alcotest.(check bool) "cache hits counted" true
        ((P9net.Ftp.counters mp).P9net.Ftp.cache_hits > 0))

let test_ftpfs_write_and_readback () =
  with_ftp (fun w env _mp ->
      Vfs.Env.write_file env "/n/ftp/usr/incoming/upload" "stored via ftp";
      (* visible on the server's real tree *)
      let helix = P9net.World.host w "helix" in
      Alcotest.(check (option string)) "server received it"
        (Some "stored via ftp")
        (Ninep.Ramfs.read_file helix.P9net.Host.root "/usr/incoming/upload");
      Alcotest.(check string) "read back through the cache"
        "stored via ftp"
        (Vfs.Env.read_file env "/n/ftp/usr/incoming/upload"))

let test_ftpfs_remove () =
  with_ftp (fun w env _mp ->
      Vfs.Env.remove env "/n/ftp/usr/doc/readme";
      let helix = P9net.World.host w "helix" in
      Alcotest.(check bool) "gone on the server" false
        (Ninep.Ramfs.exists helix.P9net.Host.root "/usr/doc/readme"))

let test_ftpfs_missing_file () =
  with_ftp (fun _w env _mp ->
      Alcotest.(check bool) "missing file errors" true
        (try
           ignore (Vfs.Env.read_file env "/n/ftp/usr/doc/nope");
           false
         with Vfs.Chan.Error _ -> true))

(* ---- authentication (rexauth + 9P session/auth) ---- *)

let authkey = "1127-authkey"
let users = [ ("philw", "secret-philw"); ("presotto", "secret-presotto") ]

let test_ticket_roundtrip () =
  let t =
    P9net.Auth.make_ticket ~authkey ~user:"philw" ~challenge:"c1"
  in
  Alcotest.(check bool) "validates" true
    (P9net.Auth.validate ~authkey ~user:"philw" ~challenge:"c1" ~ticket:t);
  Alcotest.(check bool) "wrong challenge" false
    (P9net.Auth.validate ~authkey ~user:"philw" ~challenge:"c2" ~ticket:t);
  Alcotest.(check bool) "wrong user" false
    (P9net.Auth.validate ~authkey ~user:"ken" ~challenge:"c1" ~ticket:t);
  Alcotest.(check bool) "wrong key" false
    (P9net.Auth.validate ~authkey:"other" ~user:"philw" ~challenge:"c1"
       ~ticket:t);
  Alcotest.(check bool) "empty ticket" false
    (P9net.Auth.validate ~authkey ~user:"philw" ~challenge:"c1" ~ticket:"")

let with_auth_world f =
  in_world ~from:"philw-gnot" (fun w env ->
      (* the database says auth=musca, so rexauth runs there *)
      let musca = P9net.World.host w "musca" in
      P9net.Auth.serve musca ~users ~authkey;
      Sim.Time.sleep musca.P9net.Host.eng 0.1;
      f w env)

let test_get_ticket () =
  with_auth_world (fun _w env ->
      let t =
        P9net.Auth.get_ticket env ~user:"philw" ~secret:"secret-philw"
          ~challenge:"chal-42"
      in
      Alcotest.(check bool) "ticket is valid" true
        (P9net.Auth.validate ~authkey ~user:"philw" ~challenge:"chal-42"
           ~ticket:t))

let test_get_ticket_bad_secret () =
  with_auth_world (fun _w env ->
      match
        P9net.Auth.get_ticket env ~user:"philw" ~secret:"wrong"
          ~challenge:"c"
      with
      | _ -> Alcotest.fail "should be refused"
      | exception P9net.Auth.Auth_error _ -> ())

let test_get_ticket_unknown_user () =
  with_auth_world (fun _w env ->
      match
        P9net.Auth.get_ticket env ~user:"mallory" ~secret:"x" ~challenge:"c"
      with
      | _ -> Alcotest.fail "should be refused"
      | exception P9net.Auth.Auth_error _ -> ())

(* a secured file service: exportfs-style ramfs behind the auth hook;
   dialed from musca, which has IL *)
let with_secured_mount f =
  in_world ~from:"musca" (fun w env ->
      let auth_host = P9net.World.host w "musca" in
      P9net.Auth.serve auth_host ~users ~authkey;
      Sim.Time.sleep auth_host.P9net.Host.eng 0.1;
      let helix = P9net.World.host w "helix" in
      let secured = Ninep.Ramfs.make ~owner:"bootes" ~name:"secured" () in
      Ninep.Ramfs.add_file secured "/secrets" "the plan 9 dump password";
      ignore
        (P9net.Listener.start w.P9net.World.eng helix.P9net.Host.env
           ~addr:"il!*!19009"
           ~handler:(fun henv _conn ~data_fd ->
             let tr = P9net.Fdtrans.of_fd henv data_fd in
             let srv =
               Ninep.Server.serve
                 ~auth:(P9net.Auth.server_hook ~authkey)
                 w.P9net.World.eng (Ninep.Ramfs.fs secured) tr
             in
             Sim.Proc.join srv));
      Sim.Time.sleep w.P9net.World.eng 0.1;
      let conn = P9net.Dial.dial env "il!135.104.9.31!19009" in
      let client =
        Ninep.Client.make w.P9net.World.eng
          (P9net.Fdtrans.of_fd env conn.P9net.Dial.data_fd)
      in
      f env client)

let test_authenticated_attach () =
  with_secured_mount (fun env client ->
      let root =
        P9net.Auth.client_attach env client ~user:"philw"
          ~secret:"secret-philw" ~aname:""
      in
      let f = Ninep.Client.walk_path client root [ "secrets" ] in
      ignore (Ninep.Client.open_ client f Ninep.Fcall.Oread);
      Alcotest.(check string) "authorized read"
        "the plan 9 dump password"
        (Ninep.Client.read_all client f))

let test_attach_without_auth_refused () =
  with_secured_mount (fun _env client ->
      Ninep.Client.session client;
      match Ninep.Client.attach client ~uname:"philw" ~aname:"" with
      | _ -> Alcotest.fail "attach should be refused"
      | exception Ninep.Client.Err e ->
        Alcotest.(check string) "reason" "authentication required" e)

let test_attach_with_forged_ticket_refused () =
  with_secured_mount (fun _env client ->
      Ninep.Client.session client;
      match
        Ninep.Client.rpc client
          (Ninep.Fcall.Tauth
             { afid = 0; uname = "philw"; ticket = "forged0123456789" })
      with
      | Ninep.Fcall.Rauth _ -> Alcotest.fail "forged ticket accepted"
      | _ -> Alcotest.fail "unexpected reply"
      | exception Ninep.Client.Err e ->
        Alcotest.(check string) "reason" "authentication failed" e)

let test_bad_secret_cannot_attach () =
  with_secured_mount (fun env client ->
      match
        P9net.Auth.client_attach env client ~user:"philw" ~secret:"wrong"
          ~aname:""
      with
      | _ -> Alcotest.fail "should fail at the auth server"
      | exception P9net.Auth.Auth_error _ -> ())

(* ---- the eia (UART) device ---- *)

let with_serial f =
  let eng = Sim.Engine.create () in
  let a, b =
    Netsim.Link.create_pair ~rate:9600. ~byte_bits:10 ~latency:0. eng
  in
  let ram = Ninep.Ramfs.make ~name:"root" () in
  Ninep.Ramfs.mkdir ram "/dev";
  let ns = Vfs.Ns.make ~root:(Ninep.Ramfs.fs ram) ~uname:"bootes" in
  let env = Vfs.Env.make ~ns ~uname:"bootes" in
  P9net.Eia_dev.mount env ~index:1 a;
  let finished = ref false in
  ignore
    (Sim.Proc.spawn eng ~name:"test" (fun () ->
         f eng env a b;
         finished := true));
  Sim.Engine.run ~until:60.0 eng;
  Alcotest.(check bool) "test body completed" true !finished

let test_eia_files_listed () =
  with_serial (fun _eng env _a _b ->
      Alcotest.(check (list string)) "paper's ls /dev"
        [ "eia1"; "eia1ctl" ]
        (names (Vfs.Env.ls env "/dev")))

let test_eia_ls_l_shape () =
  with_serial (fun _eng env _a _b ->
      (* the paper: --rw-rw-rw- t 0 bootes bootes 0 ... eia1 *)
      let lines =
        Vfs.Env.ls env "/dev"
        |> List.map (fun d -> Format.asprintf "%a" F.pp_dir d)
      in
      List.iter
        (fun line ->
          Alcotest.(check bool) ("shape: " ^ line) true
            (String.length line > 30
            && line.[0] = '-'
            && String.sub line 1 9 = "rw-rw-rw-"))
        lines)

let test_eia_transmit_receive () =
  with_serial (fun eng env _a b ->
      let got = ref "" in
      Netsim.Link.set_rx b (fun s -> got := !got ^ s);
      let fd = Vfs.Env.open_ env "/dev/eia1" F.Ordwr in
      ignore (Vfs.Env.write env fd "ATDT5551212");
      Sim.Time.sleep eng 1.0;
      Alcotest.(check string) "line got the bytes" "ATDT5551212" !got;
      Netsim.Link.send b "CONNECT";
      Sim.Time.sleep eng 1.0;
      Alcotest.(check string) "we got the reply" "CONNECT"
        (Vfs.Env.read env fd 100);
      Vfs.Env.close env fd)

let test_eia_baud_via_ctl () =
  with_serial (fun _eng env a _b ->
      (* the paper's example: echo b1200 > /dev/eia1ctl *)
      Vfs.Env.write_file env "/dev/eia1ctl" "b1200";
      Alcotest.(check (float 0.)) "line reclocked" 1200. (Netsim.Link.rate a);
      Alcotest.(check string) "ctl reads back" "b1200\n"
        (Vfs.Env.read_file env "/dev/eia1ctl"))

let test_eia_bad_ctl () =
  with_serial (fun _eng env _a _b ->
      let fd = Vfs.Env.open_ env "/dev/eia1ctl" F.Owrite in
      Alcotest.(check bool) "bad command rejected" true
        (try
           ignore (Vfs.Env.write env fd "warp9");
           false
         with Vfs.Chan.Error _ -> true);
      Vfs.Env.close env fd)

let test_eia_timing_depends_on_baud () =
  with_serial (fun eng env _a b ->
      let arrival = ref 0. in
      Netsim.Link.set_rx b (fun _ -> arrival := Sim.Engine.now eng);
      Vfs.Env.write_file env "/dev/eia1ctl" "b1200";
      let t0 = Sim.Engine.now eng in
      let fd = Vfs.Env.open_ env "/dev/eia1" F.Owrite in
      ignore (Vfs.Env.write env fd (String.make 120 'x'));
      Sim.Time.sleep eng 5.0;
      (* 120 bytes * 10 bits / 1200 baud = 1 second *)
      Alcotest.(check (float 1e-6)) "1200 baud timing" 1.0 (!arrival -. t0);
      Vfs.Env.close env fd)

(* ---- diskless boot ---- *)

let with_boot_world f =
  let w = P9net.World.bell_labs () in
  let helix = P9net.World.host w "helix" in
  let bootes = P9net.World.host w "bootes" in
  (* bootes is the network's file server and carries the boot file *)
  Ninep.Ramfs.add_file bootes.P9net.Host.root "/mips/9power"
    "MIPS R3000 kernel image for the gnot";
  P9net.Host.serve_exportfs bootes;
  ignore (P9net.Boot.serve helix);
  let finished = ref false in
  ignore
    (P9net.Host.spawn helix "boot-test" (fun _env ->
         Sim.Time.sleep helix.P9net.Host.eng 0.2;
         f w;
         finished := true));
  P9net.World.run ~until:240.0 w;
  Alcotest.(check bool) "test body completed" true !finished

let test_boot_discovery () =
  with_boot_world (fun w ->
      let cfg, kernel =
        P9net.Boot.boot_diskless w ~ether_addr:"08006902d15c" None
      in
      Alcotest.(check string) "assigned ip" "135.104.9.40"
        (Inet.Ipaddr.to_string cfg.P9net.Boot.bc_ip);
      Alcotest.(check string) "mask from the network entry"
        "255.255.255.0"
        (Inet.Ipaddr.to_string cfg.P9net.Boot.bc_mask);
      Alcotest.(check string) "boot file path" "/mips/9power"
        cfg.P9net.Boot.bc_bootf;
      Alcotest.(check (option string)) "file server resolved"
        (Some "135.104.9.2")
        (Option.map Inet.Ipaddr.to_string cfg.P9net.Boot.bc_fs);
      Alcotest.(check string) "kernel fetched over 9P/IL"
        "MIPS R3000 kernel image for the gnot" kernel)

let test_boot_unknown_station () =
  with_boot_world (fun w ->
      (* an ether address with no database entry gets no answer *)
      let nic =
        Netsim.Ether.attach w.P9net.World.ether
          (Netsim.Eaddr.of_string "08006902beef")
      in
      let port = Inet.Etherport.create w.P9net.World.eng nic in
      match P9net.Boot.discover ~timeout:0.3 ~retries:2 port with
      | _ -> Alcotest.fail "should not be configured"
      | exception P9net.Boot.Boot_error _ -> ())

(* ---- 9P over a serial line ---- *)

(* "When a protocol does not meet these requirements (for example, TCP
   does not preserve delimiters) we provide mechanisms to marshal
   messages before handing them to the system."  A serial line is the
   extreme case: a plain byte pipe.  Frame 9P messages over /dev/eia1
   and mount a file server through it. *)
let test_9p_over_serial_line () =
  let eng = Sim.Engine.create () in
  let a, b =
    Netsim.Link.create_pair ~rate:19200. ~byte_bits:10 ~latency:0. eng
  in
  let mk_env line =
    let ram = Ninep.Ramfs.make ~name:"root" () in
    Ninep.Ramfs.mkdir ram "/dev";
    Ninep.Ramfs.mkdir ram "/n";
    let ns = Vfs.Ns.make ~root:(Ninep.Ramfs.fs ram) ~uname:"u" in
    let env = Vfs.Env.make ~ns ~uname:"u" in
    P9net.Eia_dev.mount env ~index:1 line;
    (env, ram)
  in
  let env_a, _ram_a = mk_env a in
  let env_b, ram_b = mk_env b in
  Ninep.Ramfs.add_file ram_b "/tmp/over-the-wire" "9p at 19200 baud";
  let finished = ref false in
  (* side B serves its namespace over the serial line, framed *)
  ignore
    (Sim.Proc.spawn eng ~name:"server" (fun () ->
         let fd = Vfs.Env.open_ env_b "/dev/eia1" Ninep.Fcall.Ordwr in
         let tr = P9net.Fdtrans.of_fd ~framed:true env_b fd in
         ignore (P9net.Exportfs.serve eng env_b tr)));
  (* side A mounts it *)
  ignore
    (Sim.Proc.spawn eng ~name:"client" (fun () ->
         Sim.Time.sleep eng 0.1;
         let fd = Vfs.Env.open_ env_a "/dev/eia1" Ninep.Fcall.Ordwr in
         let tr = P9net.Fdtrans.of_fd ~framed:true env_a fd in
         let client = Ninep.Client.make eng tr in
         Ninep.Client.session client;
         Vfs.Env.mount env_a client ~aname:"/tmp" ~onto:"/n" Vfs.Ns.Repl;
         Alcotest.(check string) "read over the serial line"
           "9p at 19200 baud"
           (Vfs.Env.read_file env_a "/n/over-the-wire");
         finished := true));
  Sim.Engine.run ~until:300.0 eng;
  Alcotest.(check bool) "completed" true !finished

let () =
  Alcotest.run "services"
    [
      ( "cpu",
        [
          Alcotest.test_case "simple command" `Quick test_cpu_simple_command;
          Alcotest.test_case "arguments" `Quick test_cpu_args;
          Alcotest.test_case "reads terminal ns" `Quick
            test_cpu_reads_terminal_namespace;
          Alcotest.test_case "writes terminal ns" `Quick
            test_cpu_writes_terminal_namespace;
          Alcotest.test_case "unknown command" `Quick
            test_cpu_unknown_command;
          Alcotest.test_case "over il" `Quick test_cpu_from_ether_host;
        ] );
      ( "ftpfs",
        [
          Alcotest.test_case "ls" `Quick test_ftpfs_ls;
          Alcotest.test_case "read" `Quick test_ftpfs_read;
          Alcotest.test_case "cache" `Quick test_ftpfs_cache;
          Alcotest.test_case "write + readback" `Quick
            test_ftpfs_write_and_readback;
          Alcotest.test_case "remove" `Quick test_ftpfs_remove;
          Alcotest.test_case "missing file" `Quick test_ftpfs_missing_file;
        ] );
      ( "auth",
        [
          Alcotest.test_case "ticket roundtrip" `Quick test_ticket_roundtrip;
          Alcotest.test_case "get ticket via rexauth" `Quick test_get_ticket;
          Alcotest.test_case "bad secret" `Quick test_get_ticket_bad_secret;
          Alcotest.test_case "unknown user" `Quick
            test_get_ticket_unknown_user;
          Alcotest.test_case "authenticated attach" `Quick
            test_authenticated_attach;
          Alcotest.test_case "attach without auth" `Quick
            test_attach_without_auth_refused;
          Alcotest.test_case "forged ticket" `Quick
            test_attach_with_forged_ticket_refused;
          Alcotest.test_case "bad secret attach" `Quick
            test_bad_secret_cannot_attach;
        ] );
      ( "boot",
        [
          Alcotest.test_case "diskless boot" `Quick test_boot_discovery;
          Alcotest.test_case "unknown station" `Quick
            test_boot_unknown_station;
        ] );
      ( "eia",
        [
          Alcotest.test_case "files listed" `Quick test_eia_files_listed;
          Alcotest.test_case "ls -l shape" `Quick test_eia_ls_l_shape;
          Alcotest.test_case "transmit/receive" `Quick
            test_eia_transmit_receive;
          Alcotest.test_case "baud via ctl" `Quick test_eia_baud_via_ctl;
          Alcotest.test_case "bad ctl" `Quick test_eia_bad_ctl;
          Alcotest.test_case "baud timing" `Quick
            test_eia_timing_depends_on_baud;
          Alcotest.test_case "9p over a serial line" `Quick
            test_9p_over_serial_line;
        ] );
    ]
