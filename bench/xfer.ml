(* One point-to-point bulk transfer: [msgs] messages of [size] bytes
   from 10.0.0.1 to 10.0.0.2 on a 10 Mb/s Ethernet segment carrying the
   fault [schedule], over IL with a given config or over the TCP variant
   a given attach function builds.  The congestion and ablation
   sections, the faults bench and the congestion matrix all run this one
   loop; the faults bench's URP transfer reports into the same record. *)

type proto = Il of Inet.Il.config | Tcp of (Inet.Ip.stack -> Inet.Tcp.stack)

type t = {
  converged : bool;
  elapsed : float;  (* virtual seconds to deliver everything *)
  retransmits : int;  (* this and the counts below: both ends summed *)
  retransmitted_bytes : int;
  bytes_sent : int;
  fast_retransmits : int;  (* tcpcc only *)
  queries : int;  (* IL queries / URP enqs; 0 for TCP *)
  dups_suppressed : int;
  rtt_samples : int;  (* IL sender only *)
  drops_injected : int;
  dups_injected : int;
  reorders_injected : int;
}

let zero =
  {
    converged = false;
    elapsed = 0.;
    retransmits = 0;
    retransmitted_bytes = 0;
    bytes_sent = 0;
    fast_retransmits = 0;
    queries = 0;
    dups_suppressed = 0;
    rtt_samples = 0;
    drops_injected = 0;
    dups_injected = 0;
    reorders_injected = 0;
  }

(* the uniform-loss schedule *)
let loss p f = Netsim.Fault.set_loss f p

(* the transfer plus the wall-clock profile of its engine *)
let run ?(seed = 9) ?(schedule = ignore) ?(msgs = 200) ?(size = 1000) proto =
  let eng = Sim.Engine.create ~seed () in
  let prof = Obs.Prof.create ~clock:Unix.gettimeofday () in
  Sim.Engine.attach_prof eng prof;
  let seg = Netsim.Ether.create ~name:"ether0" eng in
  let mk n addr =
    let nic =
      Netsim.Ether.attach seg
        (Netsim.Eaddr.of_string (Printf.sprintf "08006902%04x" n))
    in
    ( nic,
      Inet.Ip.create
        ~addr:(Inet.Ipaddr.of_string addr)
        ~mask:(Inet.Ipaddr.of_string "255.255.255.0")
        (Inet.Etherport.create eng nic) )
  in
  let nic_a, ipa = mk 1 "10.0.0.1" in
  let nic_b, ipb = mk 2 "10.0.0.2" in
  schedule (Netsim.Ether.faults seg);
  let total = msgs * size and got = ref 0 and finish = ref 0. in
  let spawn name f = ignore (Sim.Proc.spawn eng ~name f) in
  let receive f =
    spawn "rx" (fun () ->
        f ();
        finish := Sim.Engine.now eng)
  in
  let raddr = Inet.Ipaddr.of_string "10.0.0.2" in
  let payload = String.make size 'd' in
  let counts =
    match proto with
    | Il config ->
      let a = Inet.Il.attach ~config ipa and b = Inet.Il.attach ~config ipb in
      receive (fun () ->
          let conv = Inet.Il.listen (Inet.Il.announce b ~port:1) in
          for _ = 1 to msgs do
            Option.iter
              (fun m -> got := !got + String.length m)
              (Inet.Il.read_msg conv)
          done);
      spawn "tx" (fun () ->
          let conv = Inet.Il.connect a ~raddr ~rport:1 in
          for _ = 1 to msgs do
            Inet.Il.write conv payload
          done);
      fun () ->
        let ca = Inet.Il.counters a and cb = Inet.Il.counters b in
        {
          zero with
          retransmits = ca.retransmits + cb.retransmits;
          retransmitted_bytes = ca.retransmitted_bytes + cb.retransmitted_bytes;
          bytes_sent = ca.bytes_sent + cb.bytes_sent;
          queries = ca.queries_sent + cb.queries_sent;
          dups_suppressed = ca.dups_dropped + cb.dups_dropped;
          rtt_samples = ca.rtt_samples;
        }
    | Tcp attach ->
      let a = attach ipa and b = attach ipb in
      receive (fun () ->
          let conv = Inet.Tcp.listen (Inet.Tcp.announce b ~port:1) in
          while !got < total do
            let s = Inet.Tcp.read conv 8192 in
            if s = "" then got := total else got := !got + String.length s
          done);
      spawn "tx" (fun () ->
          let conv = Inet.Tcp.connect a ~raddr ~rport:1 in
          for _ = 1 to msgs do
            Inet.Tcp.write conv payload
          done);
      fun () ->
        let ca = Inet.Tcp.counters a and cb = Inet.Tcp.counters b in
        {
          zero with
          retransmits = ca.retransmits + cb.retransmits;
          retransmitted_bytes = ca.retransmitted_bytes + cb.retransmitted_bytes;
          bytes_sent = ca.bytes_sent + cb.bytes_sent;
          fast_retransmits = ca.fast_retransmits + cb.fast_retransmits;
          dups_suppressed = ca.dups_dropped + cb.dups_dropped;
        }
  in
  Sim.Engine.run ~until:600.0 eng;
  let injected f =
    f (Netsim.Ether.nic_stats nic_a) + f (Netsim.Ether.nic_stats nic_b)
  in
  ( {
      (counts ()) with
      converged = !got >= total;
      elapsed = !finish;
      drops_injected = injected (fun s -> s.drops_injected);
      dups_injected = injected (fun s -> s.dups_injected);
      reorders_injected = injected (fun s -> s.reorders_injected);
    },
    Obs.Prof.report prof )
