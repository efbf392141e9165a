(* Every device tree on a booted host, pinned byte for byte.  For each
   entry the listing of its directory and its own stat are recorded in
   listing order: name, qid path and version, mode, uid, gid and type
   letter.  Then a fixed set of bad operations and a few file texts.
   The devices are the protocol devices, the Ethernet device and the
   one-file services under /net on helix, plus a pipe, an eia line, the
   cfs control directory /mnt/cfs and the mount registry /dev/mnt. *)

module F = Ninep.Fcall

let read_golden path =
  (* dune runtest runs us in test/; a manual `dune exec` from the
     workspace root sees the same file one level down *)
  let path = if Sys.file_exists path then path else "test/" ^ path in
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let entry b tag path (d : F.dir) =
  Printf.bprintf b "%s %s %s %08x.%d %lo %s %s %c\n" tag path d.F.d_name
    d.F.d_qid.F.qpath d.F.d_qid.F.qvers d.F.d_mode d.F.d_uid d.F.d_gid
    (Char.chr d.F.d_type)

let decode data =
  List.init (String.length data / F.dirlen) (fun i ->
      F.decode_dir data (i * F.dirlen))

(* the raw listing, in the order the directory serves it *)
let listing env path =
  let fd = Vfs.Env.open_ env path F.Oread in
  let rec go acc =
    match Vfs.Env.read env fd F.maxfdata with
    | "" -> List.concat (List.rev acc)
    | data -> go (decode data :: acc)
  in
  let es = go [] in
  Vfs.Env.close env fd;
  es

let rec tree b env path =
  entry b "stat" path (Vfs.Env.stat env path);
  List.iter
    (fun (d : F.dir) ->
      let p = path ^ "/" ^ d.F.d_name in
      entry b "ls" path d;
      if F.qid_is_dir d.F.d_qid then tree b env p)
    (listing env path)

let attempt b label f =
  let r =
    match f () with
    | s -> "ok " ^ String.escaped s
    | exception Vfs.Chan.Error e -> "error " ^ e
  in
  Printf.bprintf b "%s -> %s\n" label r

let walk env path () = (Vfs.Env.stat env path).F.d_name

let read_unopened env path () =
  let c = Vfs.Env.resolve env path in
  Fun.protect
    ~finally:(fun () -> Vfs.Chan.clunk c)
    (fun () -> Vfs.Chan.read c ~offset:0L ~count:F.maxfdata)

let write_to env path data () =
  let fd = Vfs.Env.open_ env path F.Ordwr in
  Fun.protect
    ~finally:(fun () -> Vfs.Env.close env fd)
    (fun () -> string_of_int (Vfs.Env.write env fd data))

let text env path () = Vfs.Env.read_file env path

(* a fresh conversation through clone, its files, and bad ctl messages *)
let protocol_ops b env proto ~bad_addr =
  let dir = "/net/" ^ proto in
  attempt b (dir ^ " walk from a file") (walk env (dir ^ "/clone/x"));
  attempt b (dir ^ " walk to a missing conversation") (walk env (dir ^ "/99"));
  attempt b (dir ^ " read unopened clone") (read_unopened env (dir ^ "/clone"));
  let ctl = Vfs.Env.open_ env (dir ^ "/clone") F.Ordwr in
  let n = Vfs.Env.read env ctl 32 in
  let conv = dir ^ "/" ^ n in
  Printf.bprintf b "%s clone -> %s\n" dir n;
  List.iter
    (fun f -> attempt b (conv ^ "/" ^ f ^ " text") (text env (conv ^ "/" ^ f)))
    [ "ctl"; "local"; "remote"; "status"; "stats" ];
  attempt b (conv ^ "/status read unopened")
    (read_unopened env (conv ^ "/status"));
  attempt b (conv ^ "/stats write") (write_to env (conv ^ "/stats") "x");
  attempt b (conv ^ "/data read unconnected") (fun () ->
      let fd = Vfs.Env.open_ env (conv ^ "/data") F.Oread in
      Fun.protect
        ~finally:(fun () -> Vfs.Env.close env fd)
        (fun () -> Vfs.Env.read env fd 10));
  List.iter
    (fun msg ->
      attempt b (conv ^ "/ctl " ^ msg) (fun () ->
          string_of_int (Vfs.Env.write env ctl msg)))
    [ "frob"; "backlog 4"; "connect " ^ bad_addr; "announce x!y!notaport" ];
  Vfs.Env.close env ctl

let ether_ops b env =
  let dir = "/net/ether0" in
  attempt b (dir ^ " walk from a file") (walk env (dir ^ "/clone/x"));
  attempt b (dir ^ " walk to a missing conversation") (walk env (dir ^ "/99"));
  (* the first conversation listed belongs to the kernel *)
  (match List.filter (fun (d : F.dir) -> d.F.d_name <> "clone") (listing env dir) with
  | k :: _ ->
    let kconv = dir ^ "/" ^ k.F.d_name in
    attempt b (kconv ^ "/ctl kernel write") (write_to env (kconv ^ "/ctl") "frob");
    attempt b (kconv ^ "/data kernel read") (fun () ->
        let fd = Vfs.Env.open_ env (kconv ^ "/data") F.Oread in
        Fun.protect
          ~finally:(fun () -> Vfs.Env.close env fd)
          (fun () -> Vfs.Env.read env fd 10))
  | [] -> ());
  let ctl = Vfs.Env.open_ env (dir ^ "/clone") F.Ordwr in
  let n = Vfs.Env.read env ctl 32 in
  let conv = dir ^ "/" ^ n in
  Printf.bprintf b "%s clone -> %s\n" dir n;
  attempt b (conv ^ "/type text") (text env (conv ^ "/type"));
  attempt b (conv ^ "/stats text") (text env (conv ^ "/stats"));
  attempt b (conv ^ "/type read unopened") (read_unopened env (conv ^ "/type"));
  attempt b (conv ^ "/stats write") (write_to env (conv ^ "/stats") "x");
  attempt b (conv ^ "/data short frame") (write_to env (conv ^ "/data") "short");
  List.iter
    (fun msg ->
      attempt b (conv ^ "/ctl " ^ msg) (fun () ->
          string_of_int (Vfs.Env.write env ctl msg)))
    [ "frob"; "connect xyz"; "connect 2048" ];
  attempt b (conv ^ "/type text") (text env (conv ^ "/type"));
  Vfs.Env.close env ctl

let service_ops b env (file, bad) =
  let p = "/net/" ^ file in
  attempt b (p ^ " walk from a file") (walk env (p ^ "/x"));
  attempt b (p ^ " read unopened") (read_unopened env p);
  match bad with
  | Some req -> attempt b (p ^ " write " ^ req) (write_to env p req)
  | None -> ()

let pipe_ops b eng =
  let fs = P9net.Pipedev.fs eng in
  let root = Vfs.Chan.attach ~devid:99 fs ~uname:"helix" ~aname:"" in
  let walk1 c name =
    match Vfs.Chan.walk1 c name with
    | Ok c -> c
    | Error e -> raise (Vfs.Chan.Error e)
  in
  entry b "stat" "#|" (Vfs.Chan.stat root);
  let r = Vfs.Chan.clone root in
  Vfs.Chan.open_ r F.Oread;
  List.iter
    (fun (d : F.dir) ->
      entry b "ls" "#|" d;
      entry b "stat" ("#|/" ^ d.F.d_name) (Vfs.Chan.stat (walk1 root d.F.d_name)))
    (decode (Vfs.Chan.read r ~offset:0L ~count:F.maxfdata));
  attempt b "#| write to the directory" (fun () ->
      string_of_int (Vfs.Chan.write r ~offset:0L "x"));
  attempt b "#| walk from a file" (fun () ->
      (Vfs.Chan.stat (walk1 (walk1 root "data") "x")).F.d_name);
  attempt b "#| read unopened" (fun () ->
      Vfs.Chan.read root ~offset:0L ~count:F.maxfdata);
  let d0 = walk1 root "data" and d1 = walk1 root "data1" in
  Vfs.Chan.open_ d0 F.Ordwr;
  Vfs.Chan.open_ d1 F.Ordwr;
  ignore (Vfs.Chan.write d0 ~offset:0L "hello");
  attempt b "#|/data1 read" (fun () -> Vfs.Chan.read d1 ~offset:0L ~count:100);
  Vfs.Chan.clunk d0;
  attempt b "#|/data1 write after close" (fun () ->
      string_of_int (Vfs.Chan.write d1 ~offset:0L "x"))

let eia_ops b env =
  attempt b "/dev/eia1 walk from a file" (walk env "/dev/eia1/x");
  attempt b "/dev/eia1ctl read unopened" (read_unopened env "/dev/eia1ctl");
  attempt b "/dev/eia1ctl text" (text env "/dev/eia1ctl");
  List.iter
    (fun msg -> attempt b ("/dev/eia1ctl " ^ msg) (write_to env "/dev/eia1ctl" msg))
    [ "frob"; "bx"; "b1200" ];
  attempt b "/dev/eia1ctl text" (text env "/dev/eia1ctl")

let cfs_ops b env =
  attempt b "/mnt/cfs walk from a file" (walk env "/mnt/cfs/stats/x");
  attempt b "/mnt/cfs/ctl read unopened" (read_unopened env "/mnt/cfs/ctl");
  attempt b "/mnt/cfs/stats write" (write_to env "/mnt/cfs/stats" "x");
  List.iter
    (fun f -> attempt b ("/mnt/cfs/" ^ f ^ " text") (text env ("/mnt/cfs/" ^ f)))
    [ "ctl"; "stats"; "status" ];
  List.iter
    (fun msg -> attempt b ("/mnt/cfs/ctl " ^ msg) (write_to env "/mnt/cfs/ctl" msg))
    [ "frob"; "readahead 0"; "budget -1"; "bsize 0"; "readahead 2" ];
  attempt b "/mnt/cfs/status text" (text env "/mnt/cfs/status")

let mnt_ops b env =
  attempt b "/dev/mnt walk from a file" (walk env "/dev/mnt/0/stats/x");
  attempt b "/dev/mnt walk to a missing conversation" (walk env "/dev/mnt/99");
  attempt b "/dev/mnt/0/stats write" (write_to env "/dev/mnt/0/stats" "x");
  attempt b "/dev/mnt/0/mountpoint text" (text env "/dev/mnt/0/mountpoint")

let devtrees () =
  let b = Buffer.create 16384 in
  Util.in_world ~from:"helix" (fun w env ->
      let eng = w.P9net.World.eng in
      Sim.Time.sleep eng 1.0;
      (* live conversations, so the protocol trees have numbered
         directories beyond the announcements *)
      let calls =
        List.map (P9net.Dial.dial env)
          [ "il!musca!echo"; "tcp!musca!echo"; "dk!musca!echo" ]
      in
      let snoop = P9net.Snoop.start w.P9net.World.ether in
      P9net.Snoop.mount env snoop;
      let a, _ =
        Netsim.Link.create_pair ~rate:9600. ~byte_bits:10 ~latency:0. eng
      in
      P9net.Eia_dev.mount env ~index:1 a;
      let ram = Ninep.Ramfs.make ~name:"upstream" () in
      Ninep.Ramfs.add_file ram "/f" "cached";
      let cli, srv = Ninep.Transport.pipe eng in
      ignore (Ninep.Server.serve eng (Ninep.Ramfs.fs ram) srv);
      let helix = P9net.World.host w "helix" in
      ignore
        (P9net.Host.mount_cached helix ~env ~upstream:cli ~onto:"/n"
           Vfs.Ns.Repl);
      List.iter (tree b env) [ "/net"; "/dev"; "/mnt" ];
      List.iter (P9net.Dial.hangup env) calls;
      List.iter
        (fun (proto, bad_addr) -> protocol_ops b env proto ~bad_addr)
        [
          ("il", "nonsense"); ("tcp", "nonsense"); ("tcpcc", "nonsense");
          ("udp", "nonsense"); ("dk", "!x");
        ];
      ether_ops b env;
      List.iter (service_ops b env)
        [
          ("cs", Some "frob"); ("dns", None); ("arp", Some "frob");
          ("ipifc", Some "frob"); ("iproute", Some "frob");
          ("log", Some "frob"); ("metrics", Some "frob");
          ("snoop", Some "frob");
        ];
      List.iter
        (fun f -> attempt b ("/net/" ^ f ^ " text") (text env ("/net/" ^ f)))
        [ "ipifc"; "log"; "metrics" ];
      pipe_ops b eng;
      eia_ops b env;
      cfs_ops b env;
      mnt_ops b env);
  Buffer.contents b

let test_devtrees () =
  Alcotest.(check string) "pinned device trees"
    (read_golden "golden/devtrees.txt")
    (devtrees ())

let () =
  Alcotest.run "devtrees"
    [ ("trees", [ Alcotest.test_case "device trees" `Quick test_devtrees ]) ]
