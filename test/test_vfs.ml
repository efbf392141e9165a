(* Tests for channels, name spaces, union mounts, and the mount
   driver. *)

module F = Ninep.Fcall

let names entries = List.map (fun d -> d.F.d_name) entries

(* Build an environment over a fresh ramfs root; run [f env ram] inside
   a simulated process. *)
let with_env f =
  let eng = Sim.Engine.create () in
  let ram = Ninep.Ramfs.make ~name:"root" () in
  let finished = ref false in
  let _p =
    Sim.Proc.spawn eng ~name:"test" (fun () ->
        let ns = Vfs.Ns.make ~root:(Ninep.Ramfs.fs ram) ~uname:"philw" in
        let env = Vfs.Env.make ~ns ~uname:"philw" in
        f eng env ram;
        finished := true)
  in
  Sim.Engine.run eng;
  Alcotest.(check bool) "test body completed" true !finished

let test_read_write_roundtrip () =
  with_env (fun _eng env _ram ->
      Vfs.Env.write_file env "/motd" "hello";
      Alcotest.(check string) "read back" "hello"
        (Vfs.Env.read_file env "/motd"))

let test_create_and_ls () =
  with_env (fun _eng env ram ->
      Ninep.Ramfs.mkdir ram "/dev";
      let fd = Vfs.Env.create env "/dev/eia1" ~perm:0o666l F.Owrite in
      Vfs.Env.close env fd;
      Alcotest.(check (list string)) "listed" [ "eia1" ]
        (names (Vfs.Env.ls env "/dev")))

let test_offsets_advance () =
  with_env (fun _eng env ram ->
      Ninep.Ramfs.add_file ram "/f" "abcdefgh";
      let fd = Vfs.Env.open_ env "/f" F.Oread in
      Alcotest.(check string) "first" "abc" (Vfs.Env.read env fd 3);
      Alcotest.(check string) "second" "def" (Vfs.Env.read env fd 3);
      Alcotest.(check string) "tail" "gh" (Vfs.Env.read env fd 3);
      Alcotest.(check string) "eof" "" (Vfs.Env.read env fd 3);
      Vfs.Env.close env fd)

let test_dup_shares_offset () =
  with_env (fun _eng env ram ->
      Ninep.Ramfs.add_file ram "/f" "abcdef";
      let fd = Vfs.Env.open_ env "/f" F.Oread in
      let fd2 = Vfs.Env.dup env fd in
      ignore (Vfs.Env.read env fd 3);
      Alcotest.(check string) "dup sees moved offset" "def"
        (Vfs.Env.read env fd2 3))

let test_chdir_relative () =
  with_env (fun _eng env ram ->
      Ninep.Ramfs.add_file ram "/lib/ndb/local" "data";
      Vfs.Env.chdir env "/lib";
      Alcotest.(check string) "relative read" "data"
        (Vfs.Env.read_file env "ndb/local");
      Vfs.Env.chdir env "ndb";
      Alcotest.(check string) "dot" "/lib/ndb" (Vfs.Env.dot env);
      Alcotest.(check string) "dotdot" "data"
        (Vfs.Env.read_file env "../ndb/local"))

let test_bad_fd () =
  with_env (fun _eng env _ram ->
      Alcotest.(check bool) "bad fd raises" true
        (try
           ignore (Vfs.Env.read env 42 1);
           false
         with Vfs.Chan.Error _ -> true))

let test_bind_repl () =
  with_env (fun _eng env ram ->
      Ninep.Ramfs.add_file ram "/a/x" "ax";
      Ninep.Ramfs.add_file ram "/b/y" "by";
      Vfs.Env.bind env ~src:"/a" ~onto:"/b" Vfs.Ns.Repl;
      Alcotest.(check (list string)) "b replaced by a" [ "x" ]
        (names (Vfs.Env.ls env "/b"));
      Alcotest.(check string) "read through bind" "ax"
        (Vfs.Env.read_file env "/b/x"))

(* finding a channel's mount entry compares two ints per entry and
   allocates nothing, even at the far end of a 16-entry table *)
let test_mount_lookup_allocates_nothing () =
  with_env (fun _eng env ram ->
      let dir i = Printf.sprintf "/d%d" i in
      Ninep.Ramfs.add_file ram "/src/f" "y";
      for i = 0 to 15 do
        Ninep.Ramfs.add_file ram (dir i ^ "/f") "x";
        Vfs.Env.bind env ~src:"/src" ~onto:(dir i) Vfs.Ns.After
      done;
      let ns = Vfs.Env.ns env in
      (* the first bind is the last entry scanned *)
      let c = Vfs.Ns.resolve_for_mount ns (dir 0) in
      Alcotest.(check int) "a union of two" 2 (List.length (Vfs.Ns.members ns c));
      let before = Gc.minor_words () in
      for _ = 1 to 1000 do
        ignore (Sys.opaque_identity (Vfs.Ns.members ns c))
      done;
      Alcotest.(check (float 0.)) "words per lookup" 0.
        ((Gc.minor_words () -. before) /. 1000.))

let test_bind_after_union () =
  with_env (fun _eng env ram ->
      (* the paper's /net example: local entries supersede remote *)
      Ninep.Ramfs.add_file ram "/net/cs" "local-cs";
      Ninep.Ramfs.add_file ram "/net/dk" "local-dk";
      Ninep.Ramfs.add_file ram "/remote/cs" "remote-cs";
      Ninep.Ramfs.add_file ram "/remote/tcp" "remote-tcp";
      Ninep.Ramfs.add_file ram "/remote/il" "remote-il";
      Vfs.Env.bind env ~src:"/remote" ~onto:"/net" Vfs.Ns.After;
      Alcotest.(check (list string)) "union contents"
        [ "cs"; "dk"; "il"; "tcp" ]
        (names (Vfs.Env.ls env "/net"));
      Alcotest.(check string) "local supersedes" "local-cs"
        (Vfs.Env.read_file env "/net/cs");
      Alcotest.(check string) "unique remote entries visible" "remote-tcp"
        (Vfs.Env.read_file env "/net/tcp"))

let test_bind_before_union () =
  with_env (fun _eng env ram ->
      Ninep.Ramfs.add_file ram "/net/cs" "local-cs";
      Ninep.Ramfs.add_file ram "/remote/cs" "remote-cs";
      Vfs.Env.bind env ~src:"/remote" ~onto:"/net" Vfs.Ns.Before;
      Alcotest.(check string) "remote first" "remote-cs"
        (Vfs.Env.read_file env "/net/cs"))

let test_bind_stacking () =
  with_env (fun _eng env ram ->
      Ninep.Ramfs.add_file ram "/a/f1" "1";
      Ninep.Ramfs.add_file ram "/b/f2" "2";
      Ninep.Ramfs.add_file ram "/c/f3" "3";
      Ninep.Ramfs.mkdir ram "/mnt";
      Vfs.Env.bind env ~src:"/a" ~onto:"/mnt" Vfs.Ns.After;
      Vfs.Env.bind env ~src:"/b" ~onto:"/mnt" Vfs.Ns.After;
      Vfs.Env.bind env ~src:"/c" ~onto:"/mnt" Vfs.Ns.Before;
      Alcotest.(check (list string)) "all stacked" [ "f1"; "f2"; "f3" ]
        (names (Vfs.Env.ls env "/mnt")))

let test_unmount () =
  with_env (fun _eng env ram ->
      Ninep.Ramfs.add_file ram "/a/x" "ax";
      Ninep.Ramfs.add_file ram "/b/y" "by";
      Vfs.Env.bind env ~src:"/a" ~onto:"/b" Vfs.Ns.Repl;
      Vfs.Env.unmount env ~onto:"/b";
      Alcotest.(check (list string)) "original restored" [ "y" ]
        (names (Vfs.Env.ls env "/b")))

let test_create_goes_to_first_member () =
  with_env (fun _eng env ram ->
      Ninep.Ramfs.mkdir ram "/a";
      Ninep.Ramfs.mkdir ram "/b";
      Vfs.Env.bind env ~src:"/a" ~onto:"/b" Vfs.Ns.Before;
      let fd = Vfs.Env.create env "/b/new" ~perm:0o664l F.Owrite in
      ignore (Vfs.Env.write env fd "data");
      Vfs.Env.close env fd;
      Alcotest.(check bool) "created in /a (first member)" true
        (Ninep.Ramfs.exists ram "/a/new");
      Alcotest.(check bool) "not in /b" false
        (Ninep.Ramfs.exists ram "/b/new"))

let test_ns_fork_isolation () =
  with_env (fun _eng env ram ->
      Ninep.Ramfs.add_file ram "/a/x" "ax";
      Ninep.Ramfs.mkdir ram "/mnt";
      let child = Vfs.Env.fork env in
      Vfs.Env.bind child ~src:"/a" ~onto:"/mnt" Vfs.Ns.Repl;
      Alcotest.(check (list string)) "child sees bind" [ "x" ]
        (names (Vfs.Env.ls child "/mnt"));
      Alcotest.(check (list string)) "parent does not" []
        (names (Vfs.Env.ls env "/mnt")))

let test_shared_ns_fork () =
  with_env (fun _eng env ram ->
      Ninep.Ramfs.add_file ram "/a/x" "ax";
      Ninep.Ramfs.mkdir ram "/mnt";
      let child = Vfs.Env.fork ~share_ns:true env in
      Vfs.Env.bind child ~src:"/a" ~onto:"/mnt" Vfs.Ns.Repl;
      Alcotest.(check (list string)) "parent sees shared bind" [ "x" ]
        (names (Vfs.Env.ls env "/mnt")))

(* ---- the mount driver: a remote ramfs over a 9P pipe ---- *)

let with_remote f =
  let eng = Sim.Engine.create () in
  let local = Ninep.Ramfs.make ~name:"root" () in
  let remote = Ninep.Ramfs.make ~owner:"helix" ~name:"helixfs" () in
  let ct, st = Ninep.Transport.pipe eng in
  let _srv = Ninep.Server.serve eng (Ninep.Ramfs.fs remote) st in
  let finished = ref false in
  let _p =
    Sim.Proc.spawn eng ~name:"test" (fun () ->
        let ns = Vfs.Ns.make ~root:(Ninep.Ramfs.fs local) ~uname:"philw" in
        let env = Vfs.Env.make ~ns ~uname:"philw" in
        let client = Ninep.Client.make eng ct in
        Ninep.Client.session client;
        f env local remote client;
        finished := true)
  in
  Sim.Engine.run eng;
  Alcotest.(check bool) "test body completed" true !finished

let test_mount_remote () =
  with_remote (fun env local remote client ->
      Ninep.Ramfs.mkdir local "/n/helix";
      Ninep.Ramfs.add_file remote "/usr/philw/profile" "bind /n/helix /n";
      Vfs.Env.mount env client ~onto:"/n/helix" Vfs.Ns.Repl;
      Alcotest.(check string) "read through 9P" "bind /n/helix /n"
        (Vfs.Env.read_file env "/n/helix/usr/philw/profile"))

let test_mount_write_remote () =
  with_remote (fun env local remote client ->
      Ninep.Ramfs.mkdir local "/n/helix";
      Vfs.Env.mount env client ~onto:"/n/helix" Vfs.Ns.Repl;
      Vfs.Env.write_file env "/n/helix/newfile" "written remotely";
      Alcotest.(check (option string)) "server saw the write"
        (Some "written remotely")
        (Ninep.Ramfs.read_file remote "/newfile"))

(* a Twrite's data has a 2-byte count: a longer write through the mount
   driver must fail, not reach the server truncated to its low 16 bits *)
let test_mount_oversize_write () =
  with_remote (fun env local remote client ->
      Ninep.Ramfs.mkdir local "/n/helix";
      Ninep.Ramfs.add_file remote "/big" "";
      Vfs.Env.mount env client ~onto:"/n/helix" Vfs.Ns.Repl;
      let fd = Vfs.Env.open_ env "/n/helix/big" Ninep.Fcall.Owrite in
      Alcotest.(check bool) "70,000-byte write raises" true
        (match Vfs.Env.write env fd (String.make 70_000 'd') with
         | _ -> false
         | exception Vfs.Chan.Error _ -> true);
      Vfs.Env.close env fd;
      Alcotest.(check (option string)) "remote file still empty" (Some "")
        (Ninep.Ramfs.read_file remote "/big"))

let test_mount_union_local_remote () =
  (* the full import -a example from section 6.1 *)
  with_remote (fun env local remote client ->
      Ninep.Ramfs.add_file local "/net/cs" "local cs";
      Ninep.Ramfs.add_file local "/net/dk" "local dk";
      Ninep.Ramfs.add_file remote "/cs" "helix cs";
      Ninep.Ramfs.add_file remote "/dk" "helix dk";
      Ninep.Ramfs.add_file remote "/dns" "helix dns";
      Ninep.Ramfs.add_file remote "/ether" "helix ether";
      Ninep.Ramfs.add_file remote "/il" "helix il";
      Ninep.Ramfs.add_file remote "/tcp" "helix tcp";
      Ninep.Ramfs.add_file remote "/udp" "helix udp";
      Alcotest.(check (list string)) "before import" [ "cs"; "dk" ]
        (names (Vfs.Env.ls env "/net"));
      Vfs.Env.mount env client ~onto:"/net" Vfs.Ns.After;
      Alcotest.(check (list string)) "after import -a helix /net"
        [ "cs"; "dk"; "dns"; "ether"; "il"; "tcp"; "udp" ]
        (names (Vfs.Env.ls env "/net"));
      Alcotest.(check string) "local chosen in preference" "local dk"
        (Vfs.Env.read_file env "/net/dk");
      Alcotest.(check string) "remote networks available" "helix tcp"
        (Vfs.Env.read_file env "/net/tcp"))

let test_mount_remote_errors_propagate () =
  with_remote (fun env local _remote client ->
      Ninep.Ramfs.mkdir local "/n/helix";
      Vfs.Env.mount env client ~onto:"/n/helix" Vfs.Ns.Repl;
      Alcotest.(check bool) "missing remote file" true
        (try
           ignore (Vfs.Env.read_file env "/n/helix/nope");
           false
         with Vfs.Chan.Error _ -> true))

let test_walk_into_second_union_member () =
  (* regression: resolving /mnt/x must consult ALL union members even
     though walking "into" /mnt lands on the first one *)
  with_env (fun _eng env ram ->
      Ninep.Ramfs.mkdir ram "/a";
      Ninep.Ramfs.add_file ram "/b/only-in-b" "found";
      Ninep.Ramfs.mkdir ram "/mnt";
      Vfs.Env.bind env ~src:"/a" ~onto:"/mnt" Vfs.Ns.Repl;
      Vfs.Env.bind env ~src:"/b" ~onto:"/mnt" Vfs.Ns.After;
      Alcotest.(check string) "file from second member" "found"
        (Vfs.Env.read_file env "/mnt/only-in-b"))

let test_bind_file_onto_file () =
  with_env (fun _eng env ram ->
      Ninep.Ramfs.add_file ram "/etc/hosts" "original";
      Ninep.Ramfs.add_file ram "/override/hosts" "replacement";
      Vfs.Env.bind env ~src:"/override/hosts" ~onto:"/etc/hosts" Vfs.Ns.Repl;
      Alcotest.(check string) "mounted file read" "replacement"
        (Vfs.Env.read_file env "/etc/hosts"))

let test_walk_through_mount_point () =
  with_remote (fun env local remote client ->
      Ninep.Ramfs.mkdir local "/n/helix";
      Ninep.Ramfs.add_file remote "/deep/nest/file" "found";
      Vfs.Env.mount env client ~onto:"/n/helix" Vfs.Ns.Repl;
      Vfs.Env.chdir env "/n/helix/deep";
      Alcotest.(check string) "relative through mount" "found"
        (Vfs.Env.read_file env "nest/file"))

(* bind and unmount resolve their mount point only as a mount-table
   key: unless it joins a union, its fid goes back to the server *)
let test_binds_give_fids_back () =
  with_remote (fun env local remote client ->
      Ninep.Ramfs.mkdir local "/n/helix";
      Ninep.Ramfs.mkdir local "/l";
      Ninep.Ramfs.mkdir remote "/a";
      Vfs.Env.mount env client ~onto:"/n/helix" Vfs.Ns.Repl;
      let only_root what =
        Alcotest.(check int) (what ^ ": only the attach root") 1
          (Ninep.Client.open_fids client)
      in
      Vfs.Env.bind env ~src:"/l" ~onto:"/n/helix/a" Vfs.Ns.Repl;
      only_root "repl bind";
      Vfs.Env.unmount env ~onto:"/n/helix/a";
      only_root "unmount";
      Vfs.Env.bind env ~src:"/l" ~onto:"/n/helix/a" Vfs.Ns.Repl;
      Vfs.Env.bind env ~src:"/l" ~onto:"/n/helix/a" Vfs.Ns.After;
      only_root "two more binds";
      Vfs.Env.unmount env ~src:"/l" ~onto:"/n/helix/a";
      only_root "unmount of one member";
      (match
         Vfs.Env.bind env ~src:"/n/helix/a" ~onto:"/nowhere" Vfs.Ns.Repl
       with
      | () -> Alcotest.fail "bind onto a missing file succeeded"
      | exception Vfs.Chan.Error _ -> ());
      only_root "bind onto a missing file")

(* namec's rule: a walk clones once, steps in place and gives back
   whatever it held, so after any path operation — one that succeeds,
   or one that fails at a middle or last component — the client holds
   only the mount's attach root *)
let test_walks_give_fids_back () =
  with_remote (fun env local remote client ->
      Ninep.Ramfs.mkdir local "/n/helix";
      Ninep.Ramfs.add_file remote "/a/b/c/d" "deep";
      Vfs.Env.mount env client ~onto:"/n/helix" Vfs.Ns.Repl;
      let only_root what =
        Alcotest.(check int) (what ^ ": only the attach root") 1
          (Ninep.Client.open_fids client)
      in
      only_root "mounted";
      for _ = 1 to 3 do
        Alcotest.(check string) "deep read" "deep"
          (Vfs.Env.read_file env "/n/helix/a/b/c/d")
      done;
      only_root "three deep reads";
      Alcotest.(check string) "deep stat" "d"
        (Vfs.Env.stat env "/n/helix/a/b/c/d").Ninep.Fcall.d_name;
      only_root "deep stat";
      List.iter
        (fun (what, path) ->
          (match Vfs.Env.stat env path with
          | _ -> Alcotest.failf "stat %s succeeded" path
          | exception Vfs.Chan.Error _ -> ());
          only_root what)
        [ ("missing middle", "/n/helix/a/nope/c/d");
          ("missing last", "/n/helix/a/b/nope") ];
      (* a union on a remote directory: crossing it clunks the remote
         channel the walk stepped from; the table keeps its member *)
      Ninep.Ramfs.add_file local "/l/y" "local y";
      Vfs.Env.bind env ~src:"/l" ~onto:"/n/helix/a" Vfs.Ns.After;
      Alcotest.(check int) "the union holds the mounted-upon fid" 2
        (Ninep.Client.open_fids client);
      Alcotest.(check string) "through the union" "deep"
        (Vfs.Env.read_file env "/n/helix/a/b/c/d");
      Alcotest.(check string) "its local member" "local y"
        (Vfs.Env.read_file env "/n/helix/a/y");
      Alcotest.(check int) "crossings give their fids back" 2
        (Ninep.Client.open_fids client))

(* a walk that crosses a mount is one Tclwalk round trip, with no
   Tclone or Twalk; a member that lacks the name leaves no fid behind,
   so a union falls through to the next; cfs relays the Tclwalk
   upstream as one message *)
let test_mount_crossing_is_one_tclwalk () =
  with_remote (fun env local remote client ->
      Ninep.Ramfs.mkdir local "/n/helix";
      Ninep.Ramfs.mkdir local "/dev/mnt";
      Ninep.Ramfs.add_file local "/b/only-local" "local";
      Ninep.Ramfs.add_file remote "/f" "remote f";
      Vfs.Env.mount env client ~onto:"/n/helix" Vfs.Ns.Repl;
      Vfs.Env.mount env client ~onto:"/b" Vfs.Ns.Before;
      Vfs.Env.mount_fs env
        (Vfs.Mnt.stats_fs (fun () -> Vfs.Ns.mounts (Vfs.Env.ns env)))
        ~onto:"/dev/mnt" Vfs.Ns.Repl;
      let has_lines path want =
        let got = String.split_on_char '\n' (Vfs.Env.read_file env path) in
        List.iter
          (fun l ->
            Alcotest.(check bool) (path ^ ": " ^ l) true (List.mem l got))
          want
      in
      Alcotest.(check string) "stat under the mount" "f"
        (Vfs.Env.stat env "/n/helix/f").F.d_name;
      has_lines "/dev/mnt/0/stats" [ "Tclwalk 1"; "Tclone 0"; "Twalk 0" ];
      let fids = Ninep.Client.open_fids client in
      Alcotest.(check string) "the union falls through" "local"
        (Vfs.Env.read_file env "/b/only-local");
      has_lines "/dev/mnt/1/stats" [ "Tclwalk 1"; "Tclone 0"; "Twalk 0" ];
      Alcotest.(check int) "a failed Tclwalk leaves no fid" fids
        (Ninep.Client.open_fids client));
  Util.in_world ~from:"helix" (fun w env ->
      let eng = w.P9net.World.eng in
      let ram = Ninep.Ramfs.make ~name:"upstream" () in
      Ninep.Ramfs.add_file ram "/f" "cached";
      let cli, srv = Ninep.Transport.pipe eng in
      ignore (Ninep.Server.serve eng (Ninep.Ramfs.fs ram) srv);
      let sent = Hashtbl.create 7 in
      let count name = Option.value ~default:0 (Hashtbl.find_opt sent name) in
      let upstream =
        {
          cli with
          Ninep.Transport.t_send =
            (fun raw ->
              (match F.decode raw with
              | F.T (_, t) ->
                let name = F.tmsg_name t in
                Hashtbl.replace sent name (count name + 1)
              | F.R _ -> ());
              cli.t_send raw);
        }
      in
      let helix = P9net.World.host w "helix" in
      ignore
        (P9net.Host.mount_cached helix ~env ~upstream ~onto:"/n" Vfs.Ns.Repl);
      Hashtbl.reset sent;
      Alcotest.(check string) "stat through cfs" "f"
        (Vfs.Env.stat env "/n/f").F.d_name;
      List.iter
        (fun (name, n) ->
          Alcotest.(check int) ("upstream " ^ name) n (count name))
        [ ("Tclwalk", 1); ("Tclone", 0); ("Twalk", 0) ])

(* a union whose head member's connection hung up: the head's walk
   fails, and the walk goes on to the next member *)
let test_union_dead_head () =
  let eng = Sim.Engine.create () in
  let local = Ninep.Ramfs.make ~name:"root" () in
  Ninep.Ramfs.mkdir local "/u";
  Ninep.Ramfs.add_file local "/b/x" "from b";
  let remote = Ninep.Ramfs.make ~name:"remote" () in
  Ninep.Ramfs.add_file remote "/x" "from remote";
  let ct, st = Ninep.Transport.pipe eng in
  let _srv = Ninep.Server.serve eng (Ninep.Ramfs.fs remote) st in
  let finished = ref false in
  let _p =
    Sim.Proc.spawn eng ~name:"test" (fun () ->
        let ns = Vfs.Ns.make ~root:(Ninep.Ramfs.fs local) ~uname:"u" in
        let env = Vfs.Env.make ~ns ~uname:"u" in
        let client = Ninep.Client.make eng ct in
        Ninep.Client.session client;
        Vfs.Env.mount env client ~onto:"/u" Vfs.Ns.Repl;
        Vfs.Env.bind env ~src:"/b" ~onto:"/u" Vfs.Ns.After;
        Alcotest.(check string) "the head answers" "from remote"
          (Vfs.Env.read_file env "/u/x");
        Ninep.Client.hangup client;
        let under = Vfs.Ns.resolve_for_mount ns "/u" in
        let head = (List.hd (Vfs.Ns.members ns under)).Vfs.Ns.m_chan in
        Alcotest.(check bool) "the head's clone fails" true
          (match Vfs.Chan.clone head with
           | _ -> false
           | exception Vfs.Chan.Error _ -> true);
        Alcotest.(check string) "the walk reaches the second member" "from b"
          (Vfs.Env.read_file env "/u/x");
        finished := true)
  in
  Sim.Engine.run eng;
  Alcotest.(check bool) "test body completed" true !finished

(* ---- lexical path normalization ---- *)

let test_normalize_cases () =
  List.iter
    (fun (dot, path, want) ->
      Alcotest.(check (list string))
        (Printf.sprintf "normalize %s @ %s" path dot)
        want
        (Vfs.Ns.normalize ~dot path))
    [
      ("/", "/a/b/c", [ "a"; "b"; "c" ]);
      ("/", "/a//b///c/", [ "a"; "b"; "c" ]);
      ("/", "/a/./b", [ "a"; "b" ]);
      ("/", "/a/b/..", [ "a" ]);
      ("/", "/a/b/../..", []);
      ("/", "/..", []);
      ("/", "/../../x", [ "x" ]);
      ("/lib/ndb", "local", [ "lib"; "ndb"; "local" ]);
      ("/lib/ndb", "../font", [ "lib"; "font" ]);
      ("/lib/ndb", ".", [ "lib"; "ndb" ]);
      ("/lib/ndb", "..", [ "lib" ]);
      ("/a", "", [ "a" ]);
    ]

let prop_normalize_idempotent =
  QCheck.Test.make ~name:"normalize is idempotent" ~count:200
    QCheck.(small_list (oneofl [ "a"; "b"; ".."; "."; ""; "x1" ]))
    (fun segs ->
      let path = "/" ^ String.concat "/" segs in
      let once = Vfs.Ns.normalize ~dot:"/" path in
      let again =
        Vfs.Ns.normalize ~dot:"/" ("/" ^ String.concat "/" once)
      in
      once = again
      && List.for_all (fun c -> c <> "." && c <> ".." && c <> "") once)

let prop_normalize_matches_model =
  QCheck.Test.make ~name:"normalize matches a stack model" ~count:200
    QCheck.(small_list (oneofl [ "a"; "b"; ".."; "."; "c" ]))
    (fun segs ->
      let path = "/" ^ String.concat "/" segs in
      let model =
        List.fold_left
          (fun acc seg ->
            match seg with
            | "." | "" -> acc
            | ".." -> ( match acc with [] -> [] | _ :: t -> t)
            | s -> s :: acc)
          [] segs
        |> List.rev
      in
      Vfs.Ns.normalize ~dot:"/" path = model)

let () =
  Alcotest.run "vfs"
    [
      ( "env",
        [
          Alcotest.test_case "read/write" `Quick test_read_write_roundtrip;
          Alcotest.test_case "create and ls" `Quick test_create_and_ls;
          Alcotest.test_case "offsets advance" `Quick test_offsets_advance;
          Alcotest.test_case "dup shares offset" `Quick test_dup_shares_offset;
          Alcotest.test_case "chdir relative" `Quick test_chdir_relative;
          Alcotest.test_case "bad fd" `Quick test_bad_fd;
        ] );
      ( "union",
        [
          Alcotest.test_case "bind repl" `Quick test_bind_repl;
          Alcotest.test_case "bind after union" `Quick test_bind_after_union;
          Alcotest.test_case "bind before union" `Quick
            test_bind_before_union;
          Alcotest.test_case "bind stacking" `Quick test_bind_stacking;
          Alcotest.test_case "unmount" `Quick test_unmount;
          Alcotest.test_case "mount lookup allocates nothing" `Quick
            test_mount_lookup_allocates_nothing;
          Alcotest.test_case "create in first member" `Quick
            test_create_goes_to_first_member;
          Alcotest.test_case "walk into second member" `Quick
            test_walk_into_second_union_member;
          Alcotest.test_case "bind file onto file" `Quick
            test_bind_file_onto_file;
          Alcotest.test_case "fork isolation" `Quick test_ns_fork_isolation;
          Alcotest.test_case "shared ns fork" `Quick test_shared_ns_fork;
        ] );
      ( "paths",
        [
          Alcotest.test_case "normalize cases" `Quick test_normalize_cases;
          QCheck_alcotest.to_alcotest prop_normalize_idempotent;
          QCheck_alcotest.to_alcotest prop_normalize_matches_model;
        ] );
      ( "mount-driver",
        [
          Alcotest.test_case "mount remote" `Quick test_mount_remote;
          Alcotest.test_case "write remote" `Quick test_mount_write_remote;
          Alcotest.test_case "oversize write remote" `Quick
            test_mount_oversize_write;
          Alcotest.test_case "import -a union" `Quick
            test_mount_union_local_remote;
          Alcotest.test_case "remote errors" `Quick
            test_mount_remote_errors_propagate;
          Alcotest.test_case "walk through mount" `Quick
            test_walk_through_mount_point;
          Alcotest.test_case "binds give fids back" `Quick
            test_binds_give_fids_back;
          Alcotest.test_case "walks give fids back" `Quick
            test_walks_give_fids_back;
          Alcotest.test_case "union past a dead head" `Quick
            test_union_dead_head;
          Alcotest.test_case "a mount crossing is one Tclwalk" `Quick
            test_mount_crossing_is_one_tclwalk;
        ] );
    ]
