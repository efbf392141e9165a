(* Distributed name spaces: multi-hop import chains over exportfs
   re-export, union mounts of several remote servers, MCREATE routing,
   per-mount error isolation, fid-leak accounting on connection death,
   and Tflush forwarding down a chain of relays. *)

(* an env over a fresh ramfs with /srv/<name> seeded and the /n/next
   mount point ready *)
let base_env ~name =
  let ram = Ninep.Ramfs.make ~name () in
  Ninep.Ramfs.mkdir ram "/srv";
  Ninep.Ramfs.add_file ram (Printf.sprintf "/srv/%s" name) (name ^ "\n");
  Ninep.Ramfs.mkdir ram "/n";
  Ninep.Ramfs.mkdir ram "/n/next";
  let ns = Vfs.Ns.make ~root:(Ninep.Ramfs.fs ram) ~uname:"u" in
  (ram, Vfs.Env.make ~ns ~uname:"u")

(* A three-level import chain over in-process pipes:

     envA --9P--> exportfs(envB) --9P--> exportfs(envC)

   C's tree holds /srv/cc; B mounts C at /n/next and re-exports the
   whole thing; A mounts B at /n/next.  One deep walk from A fans out
   over both connections. *)
let with_chain f =
  let eng = Sim.Engine.create () in
  let tr = Obs.Trace.create ~capacity:8192 () in
  Sim.Engine.attach_obs eng tr;
  let finished = ref false in
  ignore
    (Sim.Proc.spawn eng ~name:"driver" (fun () ->
         let ramC, envC = base_env ~name:"cc" in
         let ctC, stC = Ninep.Transport.pipe eng in
         let _srvC = P9net.Exportfs.serve eng envC stC in
         let clientC = Ninep.Client.make eng ctC in
         Ninep.Client.session clientC;
         let _ramB, envB = base_env ~name:"bb" in
         Vfs.Env.mount envB clientC ~aname:"" ~onto:"/n/next" Vfs.Ns.Repl;
         let ctB, stB = Ninep.Transport.pipe eng in
         let _srvB = P9net.Exportfs.serve eng envB stB in
         let clientB = Ninep.Client.make eng ctB in
         Ninep.Client.session clientB;
         let _ramA, envA = base_env ~name:"aa" in
         Vfs.Env.mount envA clientB ~aname:"" ~onto:"/n/next" Vfs.Ns.Repl;
         f eng tr ~envA ~envB ~ramC ~clientB ~clientC ~ctC;
         finished := true));
  Sim.Engine.run ~until:600.0 eng;
  Alcotest.(check bool) "driver completed" true !finished

let counter tr name = Obs.Metrics.counter (Obs.Trace.metrics tr) name

(* ---- the chain relays reads and writes end to end ---- *)

let test_two_hop_read () =
  with_chain (fun _eng _tr ~envA ~envB:_ ~ramC ~clientB:_ ~clientC:_ ~ctC:_ ->
      Alcotest.(check string) "one hop" "bb\n"
        (Vfs.Env.read_file envA "/n/next/srv/bb");
      Alcotest.(check string) "two hops" "cc\n"
        (Vfs.Env.read_file envA "/n/next/n/next/srv/cc");
      (* a write from the head lands on the tail's ramfs *)
      Vfs.Env.write_file envA "/n/next/n/next/srv/note" "written from A";
      Alcotest.(check (option string)) "write reached C"
        (Some "written from A")
        (Ninep.Ramfs.read_file ramC "/srv/note"))

(* ---- the tail dies: clean error at the head, relay survives ---- *)

let test_upstream_death_clean_error () =
  with_chain (fun _eng _tr ~envA ~envB:_ ~ramC:_ ~clientB:_ ~clientC:_ ~ctC ->
      Alcotest.(check string) "before" "cc\n"
        (Vfs.Env.read_file envA "/n/next/n/next/srv/cc");
      ctC.Ninep.Transport.t_close ();
      (match Vfs.Env.read_file envA "/n/next/n/next/srv/cc" with
      | _ -> Alcotest.fail "read through a dead hop must not succeed"
      | exception Vfs.Chan.Error _ -> ());
      (* same connection: the relay's own files still answer *)
      Alcotest.(check string) "relay survives" "bb\n"
        (Vfs.Env.read_file envA "/n/next/srv/bb"))

(* ---- fid accounting: leaks counted on death, balanced in life ---- *)

let test_leaked_fids_on_death () =
  with_chain (fun _eng tr ~envA:_ ~envB ~ramC:_ ~clientB:_ ~clientC ~ctC ->
      Alcotest.(check int) "no leaks while alive" 0
        (counter tr "9p.fids_leaked");
      (* B's mount of C holds at least its attach fid *)
      Alcotest.(check bool) "mount holds fids" true
        (Ninep.Client.open_fids clientC > 0);
      ctC.Ninep.Transport.t_close ();
      (* the client has no reader process: the next call through the
         mount notices the hangup, and fails cleanly *)
      (match Vfs.Env.read_file envB "/n/next/srv/cc" with
      | _ -> Alcotest.fail "read through a dead mount must not succeed"
      | exception Vfs.Chan.Error _ -> ());
      Alcotest.(check bool) "death leaks counted" true
        (counter tr "9p.fids_leaked" > 0);
      (* and the per-mount ledger of B's /n/next mount carries them *)
      let leaked =
        List.fold_left
          (fun acc (onto, m) ->
            if onto = "/n/next" then acc + Obs.Metrics.counter m "leaked_fids"
            else acc)
          0
          (Vfs.Ns.mounts (Vfs.Env.ns envB))
      in
      Alcotest.(check bool) "per-mount leaked_fids" true (leaked > 0);
      (* stats_text renders the new line *)
      (match Vfs.Ns.mounts (Vfs.Env.ns envB) with
      | (_, m) :: _ ->
        let text = Vfs.Mnt.stats_text m in
        let contains needle =
          let nl = String.length needle and hl = String.length text in
          let rec go i =
            i + nl <= hl && (String.sub text i nl = needle || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) "stats_text has leaked_fids" true
          (contains "leaked_fids")
      | [] -> Alcotest.fail "no mounts registered"))

let test_fid_balance_in_life () =
  with_chain (fun _eng _tr ~envA:_ ~envB:_ ~ramC:_ ~clientB ~clientC:_ ~ctC:_
             ->
      let before = Ninep.Client.open_fids clientB in
      let root = Ninep.Client.attach clientB ~uname:"u" ~aname:"" in
      let fid = Ninep.Client.walk_path clientB root [ "srv"; "bb" ] in
      ignore (Ninep.Client.open_ clientB fid Ninep.Fcall.Oread);
      Alcotest.(check string) "read" "bb\n"
        (Ninep.Client.read_all clientB fid);
      Alcotest.(check int) "two extra while open" (before + 2)
        (Ninep.Client.open_fids clientB);
      Ninep.Client.clunk clientB fid;
      Ninep.Client.clunk clientB root;
      Alcotest.(check int) "balanced after clunk" before
        (Ninep.Client.open_fids clientB))

(* deep reads through the relay: A's walk steps B's exportfs node in
   place, and B's walk below its own mount steps in place on C, so
   neither connection keeps a fid per step *)
let test_deep_reads_balance_both_hops () =
  with_chain (fun _eng _tr ~envA ~envB:_ ~ramC:_ ~clientB ~clientC ~ctC:_ ->
      let b0 = Ninep.Client.open_fids clientB
      and c0 = Ninep.Client.open_fids clientC in
      for _ = 1 to 5 do
        Alcotest.(check string) "two hops" "cc\n"
          (Vfs.Env.read_file envA "/n/next/n/next/srv/cc")
      done;
      Alcotest.(check int) "A's connection to B balanced" b0
        (Ninep.Client.open_fids clientB);
      Alcotest.(check int) "B's connection to C balanced" c0
        (Ninep.Client.open_fids clientC))

(* ---- Tflush forwards hop by hop when a blocked reader is killed ---- *)

let test_flush_forwarding () =
  let eng = Sim.Engine.create () in
  let tr = Obs.Trace.create ~capacity:8192 () in
  Sim.Engine.attach_obs eng tr;
  let finished = ref false in
  ignore
    (Sim.Proc.spawn eng ~name:"driver" (fun () ->
         (* the tail server answers reads 30 s late *)
         let ramC = Ninep.Ramfs.make ~name:"slowroot" () in
         Ninep.Ramfs.mkdir ramC "/srv";
         Ninep.Ramfs.add_file ramC "/srv/cc" "cc\n";
         let fsC = Ninep.Ramfs.fs ramC in
         let slow =
           {
             fsC with
             Ninep.Server.fs_read =
               (fun n ~offset ~count ->
                 Sim.Time.sleep eng 30.0;
                 fsC.Ninep.Server.fs_read n ~offset ~count);
           }
         in
         let ctC, stC = Ninep.Transport.pipe eng in
         ignore (Ninep.Server.serve ~threaded:true eng slow stC);
         let clientC = Ninep.Client.make eng ctC in
         Ninep.Client.session clientC;
         let _ramB, envB = base_env ~name:"bb" in
         Vfs.Env.mount envB clientC ~aname:"" ~onto:"/n/next" Vfs.Ns.Repl;
         let ctB, stB = Ninep.Transport.pipe eng in
         let _srvB = P9net.Exportfs.serve eng envB stB in
         let clientB = Ninep.Client.make eng ctB in
         Ninep.Client.session clientB;
         let _ramA, envA = base_env ~name:"aa" in
         Vfs.Env.mount envA clientB ~aname:"" ~onto:"/n/next" Vfs.Ns.Repl;
         let reader =
           Sim.Proc.spawn eng ~name:"reader" (fun () ->
               match Vfs.Env.read_file envA "/n/next/n/next/srv/cc" with
               | _ -> Alcotest.fail "killed reader must not complete"
               | exception Sim.Proc.Killed -> ())
         in
         (* the read is parked inside the slow tail when the kill lands *)
         Sim.Time.sleep eng 2.0;
         Sim.Proc.kill reader;
         Sim.Time.sleep eng 2.0;
         (* the abort cascaded: A told B (flush 1), B's killed relay
            handler told C (flush 2); each server killed its in-flight
            handler *)
         Alcotest.(check bool) "flushes forwarded" true
           (counter tr "9p.flush_sent" >= 2);
         Alcotest.(check bool) "handlers killed" true
           (counter tr "9p.flush_killed" >= 2);
         (* nothing wedged: the same deep read still completes (30 s
            of virtual patience) and the relay's own tree answers *)
         Alcotest.(check string) "relay alive" "bb\n"
           (Vfs.Env.read_file envA "/n/next/srv/bb");
         Alcotest.(check string) "tail alive" "cc\n"
           (Vfs.Env.read_file envA "/n/next/n/next/srv/cc");
         finished := true));
  Sim.Engine.run ~until:600.0 eng;
  Alcotest.(check bool) "driver completed" true !finished

(* ---- a handler exception becomes an Rerror, not a dead server ---- *)

let test_handler_exception_is_rerror () =
  let eng = Sim.Engine.create () in
  let finished = ref false in
  ignore
    (Sim.Proc.spawn eng ~name:"driver" (fun () ->
         let ram = Ninep.Ramfs.make ~name:"r" () in
         Ninep.Ramfs.add_file ram "/f" "data";
         let fs = Ninep.Ramfs.fs ram in
         let booby =
           {
             fs with
             Ninep.Server.fs_read =
               (fun _ ~offset:_ ~count:_ -> raise (Vfs.Chan.Error "boom"));
           }
         in
         let ct, st = Ninep.Transport.pipe eng in
         ignore (Ninep.Server.serve eng booby st);
         let c = Ninep.Client.make eng ct in
         Ninep.Client.session c;
         let root = Ninep.Client.attach c ~uname:"u" ~aname:"" in
         let fid = Ninep.Client.walk_path c root [ "f" ] in
         ignore (Ninep.Client.open_ c fid Ninep.Fcall.Oread);
         (match Ninep.Client.read c fid ~offset:0L ~count:128 with
         | _ -> Alcotest.fail "booby-trapped read must error"
         | exception Ninep.Client.Err e ->
           (* the registered printer renders Chan.Error as its bare
              message *)
           Alcotest.(check string) "printer renders the message" "boom" e);
         (* the serving loop survived the raise *)
         Alcotest.(check string) "stat still answers" "f"
           (Ninep.Client.stat c fid).Ninep.Fcall.d_name;
         finished := true));
  Sim.Engine.run ~until:60.0 eng;
  Alcotest.(check bool) "driver completed" true !finished

(* ---- union mounts over locals: MCREATE routing, src unmount, dead
   member isolation ---- *)

let local_env () =
  let ram = Ninep.Ramfs.make ~name:"root" () in
  List.iter (Ninep.Ramfs.mkdir ram) [ "/u"; "/one"; "/two"; "/three" ];
  Ninep.Ramfs.add_file ram "/one/a" "a-from-one";
  Ninep.Ramfs.add_file ram "/two/a" "a-from-two";
  Ninep.Ramfs.add_file ram "/two/b" "b-from-two";
  Ninep.Ramfs.add_file ram "/three/c" "c-from-three";
  let ns = Vfs.Ns.make ~root:(Ninep.Ramfs.fs ram) ~uname:"u" in
  (ram, Vfs.Env.make ~ns ~uname:"u")

let test_mcreate_routing () =
  let ram, env = local_env () in
  Vfs.Env.bind ~mcreate:false env ~src:"/one" ~onto:"/u" Vfs.Ns.Repl;
  Vfs.Env.bind ~mcreate:true env ~src:"/two" ~onto:"/u" Vfs.Ns.After;
  Vfs.Env.bind ~mcreate:true env ~src:"/three" ~onto:"/u" Vfs.Ns.After;
  Vfs.Env.write_file env "/u/fresh" "x";
  Alcotest.(check (option string)) "landed on the first mcreate member"
    (Some "x")
    (Ninep.Ramfs.read_file ram "/two/fresh");
  Alcotest.(check bool) "not on the frozen member" false
    (Ninep.Ramfs.exists ram "/one/fresh")

let test_mcreate_all_frozen () =
  let _ram, env = local_env () in
  Vfs.Env.bind ~mcreate:false env ~src:"/one" ~onto:"/u" Vfs.Ns.Repl;
  Vfs.Env.bind ~mcreate:false env ~src:"/two" ~onto:"/u" Vfs.Ns.After;
  match Vfs.Env.write_file env "/u/fresh" "x" with
  | () -> Alcotest.fail "all-frozen union must refuse creation"
  | exception Vfs.Chan.Error e ->
    let contains needle =
      let nl = String.length needle and hl = String.length e in
      let rec go i =
        i + nl <= hl && (String.sub e i nl = needle || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "kernel error text" true
      (contains "forbids creation")

let test_unmount_src () =
  let _ram, env = local_env () in
  Vfs.Env.bind env ~src:"/one" ~onto:"/u" Vfs.Ns.Repl;
  Vfs.Env.bind env ~src:"/two" ~onto:"/u" Vfs.Ns.After;
  Alcotest.(check string) "union head wins" "a-from-one"
    (Vfs.Env.read_file env "/u/a");
  Alcotest.(check string) "fallthrough" "b-from-two"
    (Vfs.Env.read_file env "/u/b");
  (* two-argument unmount: only the named member goes *)
  Vfs.Env.unmount ~src:"/one" env ~onto:"/u";
  Alcotest.(check string) "survivor now answers" "a-from-two"
    (Vfs.Env.read_file env "/u/a");
  Vfs.Env.unmount ~src:"/two" env ~onto:"/u";
  (* the union dissolved entirely: /u is the plain directory again *)
  match Vfs.Env.read_file env "/u/a" with
  | _ -> Alcotest.fail "dissolved union must not still serve members"
  | exception Vfs.Chan.Error _ -> ()

let test_union_skips_dead_member () =
  let eng = Sim.Engine.create () in
  let finished = ref false in
  ignore
    (Sim.Proc.spawn eng ~name:"driver" (fun () ->
         let _ram, env = local_env () in
         let remote = Ninep.Ramfs.make ~name:"remote" () in
         Ninep.Ramfs.add_file remote "/r" "from-remote";
         let ct, st = Ninep.Transport.pipe eng in
         ignore (Ninep.Server.serve eng (Ninep.Ramfs.fs remote) st);
         let c = Ninep.Client.make eng ct in
         Ninep.Client.session c;
         Vfs.Env.bind env ~src:"/one" ~onto:"/u" Vfs.Ns.Repl;
         Vfs.Env.mount env c ~aname:"" ~onto:"/u" Vfs.Ns.After;
         Vfs.Env.bind env ~src:"/three" ~onto:"/u" Vfs.Ns.After;
         let names () =
           List.sort compare
             (List.map
                (fun d -> d.Ninep.Fcall.d_name)
                (Vfs.Env.ls env "/u"))
         in
         Alcotest.(check (list string)) "whole union listed"
           [ "a"; "c"; "r" ] (names ());
         ct.Ninep.Transport.t_close ();
         Sim.Time.sleep eng 1.0;
         (* the dead member is skipped, not fatal *)
         Alcotest.(check (list string)) "listing survives the death"
           [ "a"; "c" ] (names ());
         (* and a walk past it falls through to the later member *)
         Alcotest.(check string) "walk falls through" "c-from-three"
           (Vfs.Env.read_file env "/u/c");
         (* the planted selftest bug would stop that walk at the dead
            member — prove the plant actually bites here *)
         Vfs.Ns.chaos_union_lost_walk := true;
         Fun.protect
           ~finally:(fun () -> Vfs.Ns.chaos_union_lost_walk := false)
           (fun () ->
             match Vfs.Env.read_file env "/u/c" with
             | _ -> Alcotest.fail "armed plant should stop the fallthrough"
             | exception Vfs.Chan.Error _ -> ());
         finished := true));
  Sim.Engine.run ~until:60.0 eng;
  Alcotest.(check bool) "driver completed" true !finished

(* ---- the golden 3-hop span tree, over the cluster world ---- *)

let read_golden path =
  (* dune runtest runs us in test/; a manual `dune exec` from the
     workspace root sees the same file one level down *)
  let path = if Sys.file_exists path then path else "test/" ^ path in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let chain_span_run () =
  let w = P9net.World.cluster ~seed:5 ~n:3 () in
  let eng = w.P9net.World.eng in
  let tr = Obs.Trace.create ~capacity:65536 () in
  Sim.Engine.attach_obs eng tr;
  let finished = ref false in
  ignore
    (P9net.Host.spawn (P9net.World.host w "c0") "test" (fun env ->
         Sim.Time.sleep eng 1.0;
         let c1 = P9net.World.host w "c1" in
         P9net.Exportfs.import eng c1.P9net.Host.env ~host:"c2"
           ~remote_root:"/" ~onto:"/n/next" ~flag:Vfs.Ns.Repl ();
         P9net.Exportfs.import eng env ~host:"c1" ~remote_root:"/"
           ~onto:"/n/next" ~flag:Vfs.Ns.Repl ();
         Alcotest.(check string) "deep read" "c2\n"
           (Vfs.Env.read_file env "/n/next/n/next/srv/c2");
         finished := true));
  P9net.World.run ~until:120.0 w;
  Alcotest.(check bool) "chain built" true !finished;
  tr

let test_chain_spans_golden () =
  let tr = chain_span_run () in
  (* trace 1 is c1's import of c2 (the far hop), trace 2 is c0's
     import of c1 (the near hop): each shows the same causal shape —
     CS lookup, IL dial, 9P session and attach *)
  let tree = Obs.Span.tree ~trace:1 tr ^ Obs.Span.tree ~trace:2 tr in
  Alcotest.(check string) "pinned span tree"
    (read_golden "golden/chain_spans.txt")
    tree

let () =
  Alcotest.run "cluster"
    [
      ( "chain",
        [
          Alcotest.test_case "two-hop read" `Quick test_two_hop_read;
          Alcotest.test_case "upstream death" `Quick
            test_upstream_death_clean_error;
          Alcotest.test_case "leaked fids on death" `Quick
            test_leaked_fids_on_death;
          Alcotest.test_case "fid balance in life" `Quick
            test_fid_balance_in_life;
          Alcotest.test_case "deep reads balance both hops" `Quick
            test_deep_reads_balance_both_hops;
          Alcotest.test_case "flush forwarding" `Quick test_flush_forwarding;
          Alcotest.test_case "handler exception" `Quick
            test_handler_exception_is_rerror;
        ] );
      ( "union",
        [
          Alcotest.test_case "mcreate routing" `Quick test_mcreate_routing;
          Alcotest.test_case "all frozen refuses" `Quick
            test_mcreate_all_frozen;
          Alcotest.test_case "unmount src" `Quick test_unmount_src;
          Alcotest.test_case "dead member skipped" `Quick
            test_union_skips_dead_member;
        ] );
      ( "spans",
        [
          Alcotest.test_case "chain span golden" `Quick
            test_chain_spans_golden;
        ] );
    ]
