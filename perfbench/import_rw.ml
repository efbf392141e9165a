(* import-rw: private file churn through imported name spaces in the
   Bell Labs world.  Workers on musca import helix's tree -- a third over
   IL through a write-through terminal cfs (Host.mount_cached), a third
   over TCP -- and a third on philw-gnot import it over URP/Datakit.
   Each worker loops create -> write -> close on a new file, and
   [window] files behind, open -> read back -> close -> stat -> remove,
   always on its own files.  Writes are 1 B to 8 KiB, so the window's
   working set exceeds the cfs budget.  An op is one Vfs.Env call; a
   read-back must equal what was written and a stat must show its
   length.

   Every import is what Exportfs.import does -- dial, 9P session, mount
   -- spelled out, so the traced run can wrap the transport.  TCP "does
   not preserve delimiters": a 9P message longer than one segment
   reaches the far end in pieces, and the stock exportfs listener and
   Exportfs.import pass the stream through unmarshalled, so a Twrite
   beyond one segment hangs the mount.  The TCP workers therefore use
   the paper's remedy: helix runs a second exportfs behind the
   length-prefix framing of Fdtrans ~framed on tcp!*!17020, and the
   workers mount it through the same framing.

   Every worker writes the same ladder of sizes, evenly spaced from 1 B
   to 8 KiB; the seed deals the ladder's order and the bytes.  The
   world's own seed stays fixed: it belongs to the simulated world, not
   to the inputs. *)

let workers_per_kind = 3
let iters = 800
let framed_port = "17020"
let world_seed = 1
let window = 4
let cfs_config = { Cfs.default_config with Cfs.budget = 8192 }

type kind = Il_cfs | Tcp | Urp

exception Call_failed

(* The mount driver's ledger for the mount on [onto], from the
   /dev/mnt/<i>/stats files of the caller's name space. *)
let mount_stats env onto =
  List.find_map
    (fun (d : Ninep.Fcall.dir) ->
      let dir = "/dev/mnt/" ^ d.d_name in
      if String.trim (Vfs.Env.read_file env (dir ^ "/mountpoint")) = onto then
        Some
          (List.filter_map
             (fun l ->
               match String.split_on_char ' ' l with
               | [ k; v ] -> Option.map (fun v -> (k, v)) (int_of_string_opt v)
               | _ -> None)
             (String.split_on_char '\n' (Vfs.Env.read_file env (dir ^ "/stats"))))
      else None)
    (Vfs.Env.ls env "/dev/mnt")

(* Hang up: close every descriptor this worker holds on /net. *)
let hangup_all env =
  for fd = 0 to 63 do
    match Vfs.Env.fd_path env fd with
    | p when Wl.starts_with "/net/" p -> Vfs.Env.close env fd
    | _ -> ()
    | exception _ -> ()
  done

let setup ~seed ~traced () =
  let w = P9net.World.bell_labs ~seed:world_seed () in
  let eng = w.P9net.World.eng in
  let probe = if traced then Some (Probe.create eng) else None in
  (match probe with Some p -> Probe.capture p w.P9net.World.ether | None -> ());
  let helix = P9net.World.host w "helix" in
  let musca = P9net.World.host w "musca" in
  let gnot = P9net.World.host w "philw-gnot" in
  Ninep.Ramfs.mkdir helix.P9net.Host.root "/work";
  ignore
    (P9net.Listener.start eng helix.P9net.Host.env ~addr:("tcp!*!" ^ framed_port)
       ~handler:(fun env _conn ~data_fd ->
         let tr = P9net.Fdtrans.of_fd ~framed:true env data_fd in
         Sim.Proc.join (P9net.Exportfs.serve eng env tr)));
  let attempted = ref 0 and failed = ref 0 and next_op = ref 0 in
  let lats = ref [] in
  let first = ref infinity and last = ref 0. in
  let caches = ref [] and ledgers = ref [] in
  let kinds = [ Il_cfs; Tcp; Urp ] in
  List.iteri
    (fun ki kind ->
      for j = 0 to workers_per_kind - 1 do
        let k = (ki * workers_per_kind) + j in
        let host = if kind = Urp then gnot else musca in
        let dir = Printf.sprintf "/work/w%d" k and mnt = Printf.sprintf "/n/w%d" k in
        Ninep.Ramfs.mkdir helix.P9net.Host.root dir;
        Ninep.Ramfs.mkdir host.P9net.Host.root mnt;
        let rng = Random.State.make [| seed; k |] in
        let pool = String.init 16384 (fun _ -> Char.chr (Random.State.int rng 256)) in
        let sizes =
          Array.init iters (fun i -> 1 + (i * (Ninep.Fcall.maxfdata - 1) / (iters - 1)))
        in
        for i = iters - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let t = sizes.(i) in
          sizes.(i) <- sizes.(j);
          sizes.(j) <- t
        done;
        ignore
          (P9net.Host.spawn host (Printf.sprintf "rw%d" k) (fun env ->
               Sim.Time.sleep eng 1.0;
               let c = Probe.ctx () in
               let call name f =
                 incr attempted;
                 c.c_op <- !next_op;
                 incr next_op;
                 let t0 = Sim.Engine.now eng in
                 if t0 < !first then first := t0;
                 match Probe.within probe c "vfs" name f with
                 | v ->
                   let t1 = Sim.Engine.now eng in
                   lats := (t1 -. t0) :: !lats;
                   if t1 > !last then last := t1;
                   v
                 | exception _ -> raise Call_failed
               in
               let check (path, data) =
                 let fd = call "open" (fun () -> Vfs.Env.open_ env path Ninep.Fcall.Oread) in
                 let got = Buffer.create (String.length data) in
                 let rec drain () =
                   let s = call "read" (fun () -> Vfs.Env.read env fd Ninep.Fcall.maxfdata) in
                   if s <> "" then begin
                     Buffer.add_string got s;
                     drain ()
                   end
                 in
                 drain ();
                 call "close" (fun () -> Vfs.Env.close env fd);
                 if Buffer.contents got <> data then incr failed;
                 let d = call "stat" (fun () -> Vfs.Env.stat env path) in
                 if d.Ninep.Fcall.d_length <> Int64.of_int (String.length data) then incr failed;
                 call "remove" (fun () -> Vfs.Env.remove env path)
               in
               try
                 let wire ?framed addr =
                   let conn =
                     Probe.dial probe c env ~tries:20
                       ~pause:(fun () -> Sim.Time.sleep eng 0.5)
                       addr
                   in
                   let wire = P9net.Fdtrans.of_fd ?framed env conn.P9net.Dial.data_fd in
                   match probe with Some p -> Probe.wire p c wire | None -> wire
                 in
                 (match kind with
                 | Il_cfs ->
                   caches :=
                     P9net.Host.mount_cached host ~config:cfs_config ~aname:dir ~env
                       ~upstream:(wire "il!helix!exportfs") ~onto:mnt Vfs.Ns.Repl
                     :: !caches
                 | Tcp | Urp ->
                   let tr =
                     if kind = Tcp then wire ~framed:true ("tcp!helix!" ^ framed_port)
                     else wire "dk!helix!exportfs"
                   in
                   let client = Ninep.Client.make eng tr in
                   Ninep.Client.session client;
                   Vfs.Env.mount env client ~aname:dir ~onto:mnt Vfs.Ns.Repl);
                 let pending = Queue.create () in
                 for i = 0 to iters - 1 do
                   let size = sizes.(i) in
                   let data = String.sub pool (Random.State.int rng (16384 - size + 1)) size in
                   let path = Printf.sprintf "%s/f%d" mnt i in
                   let fd =
                     call "create" (fun () ->
                         Vfs.Env.create env path ~perm:0o644l Ninep.Fcall.Owrite)
                   in
                   if call "write" (fun () -> Vfs.Env.write env fd data) <> size then incr failed;
                   call "close" (fun () -> Vfs.Env.close env fd);
                   Queue.push (path, data) pending;
                   if Queue.length pending >= window then check (Queue.pop pending)
                 done;
                 Queue.iter check pending;
                 if traced then ledgers := (kind, mount_stats env mnt) :: !ledgers;
                 Vfs.Env.unmount env ~onto:mnt;
                 hangup_all env
               with
               | Call_failed -> ()
               | _ -> incr failed))
      done)
    kinds;
  (* boot the world; the workers start at 1 s *)
  P9net.World.run ~until:(1.0 -. 1e-6) w;
  let outcome () =
    {
      Wl.attempted = !attempted;
      (* a call that raised or never returned counts once *)
      failed = !failed + !attempted - List.length !lats;
      lats = Array.of_list !lats;
      first = !first;
      last = !last;
      fingerprint =
        [
          ("engine_events", string_of_int (Sim.Engine.events eng));
          ("ops", string_of_int !attempted);
          ("last_s", Printf.sprintf "%.6f" !last);
        ];
    }
  in
  let layers () =
    let ops = float_of_int (max 1 !attempted) in
    let ledger key =
      List.fold_left
        (fun acc (_, l) ->
          match l with
          | Some l -> acc + Option.value ~default:0 (List.assoc_opt key l)
          | None -> acc)
        0 !ledgers
    in
    let sum name = Wl.sum (fun c -> Cfs.counter c name) !caches in
    let upstream = match probe with Some p -> p.Probe.rpcs | None -> 0 in
    let upstream_bytes = match probe with Some p -> p.Probe.rpc_bytes | None -> 0 in
    [
      ("9p.rpcs_per_op", float_of_int (ledger "total") /. ops);
      (* fids beyond each mount's attach root *)
      ("9p.open_fids_end", float_of_int (ledger "Tclone" - ledger "Tclunk" - ledger "Tremove"));
      ("cfs.term_hit_ratio", Wl.hit_ratio (sum "hits") (sum "misses"));
      ("cfs.rack_hit_ratio", 0.);
      ("cfs.coalesced", float_of_int (sum "coalesced"));
      ("cfs.origin_rts_per_op", float_of_int upstream /. ops);
      ("cfs.origin_bytes_per_op", float_of_int upstream_bytes /. ops);
      ("cfs.write_through", float_of_int (sum "write_through"));
    ]
  in
  let micro () =
    let p = Option.get probe in
    {
      Micro.fcalls = p.Probe.messages.kept;
      packets = p.Probe.packets.kept;
      table = Route.table (Option.get musca.P9net.Host.node);
      ns = Vfs.Env.ns musca.P9net.Host.env;
      paths =
        [ "/net/cs"; "/net/il/clone"; "/net/tcp/clone"; "/dev/mnt" ]
        @ List.map (fun (_, d) -> d ^ "/status") p.Probe.dials;
      cs = musca.P9net.Host.cs;
      addrs = "tcp!helix!exportfs" :: List.map fst p.Probe.dials;
      db = w.P9net.World.db;
      names = [ "helix"; "musca"; "philw-gnot" ];
    }
  in
  {
    Wl.world = w;
    probe;
    horizon = 3600.;
    outcome;
    layers;
    daemons = [ "ether"; "dns"; "listen"; "il"; "tcp"; "dk"; "urp"; "exportfs"; "cs"; "9p"; "cfs"; "serve" ];
    micro;
  }

let workload =
  { Wl.name = "import-rw"; default_seed = 1; setup = (fun ~seed ~traced -> setup ~seed ~traced ()) }
