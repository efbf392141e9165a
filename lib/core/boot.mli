(** Diskless bootstrap (the paper's ndb entry carries [bootf=] and the
    network entry [fs=] — section 4.1: "The entry for the network
    specifies the IP mask, file system, and authentication server for
    all systems on the network").

    A diskless station knows only its Ethernet address.  It broadcasts
    a request on a dedicated packet type through the Figure-1 driver
    interface; the boot server looks the station up in the database by
    [ether=] and answers with its IP address, mask, gateway, boot file
    and file-server address.  The station then builds its IP stack and
    fetches the boot file from the file server over 9P/IL.

    Wire format on packet type 0xB007, ASCII as always:
    request ["boot?"], reply
    ["boot <ip> <mask> <gw|none> <bootf> <fs-ip|none>"]. *)

type config = {
  bc_ip : Inet.Ipaddr.t;
  bc_mask : Inet.Ipaddr.t;
  bc_gw : Inet.Ipaddr.t option;
  bc_bootf : string;
  bc_fs : Inet.Ipaddr.t option;
}

val serve : Host.t -> Sim.Proc.t option
(** Answer boot requests from the host's database (requires an
    Ethernet interface; [None] without one). *)

exception Boot_error of string

val discover :
  ?timeout:float -> ?retries:int -> Inet.Etherport.t -> config
(** Broadcast until a boot server answers.
    @raise Boot_error after the retry budget. *)

val boot_diskless :
  World.t -> ether_addr:string -> (Host.t -> unit) option -> config * string
(** The whole sequence for a station with the given Ethernet address
    (which must have an [ether=] entry in the world's database): attach
    to the wire, {!discover}, build the IP stack, and fetch the boot
    file from the file server's exportfs.  Returns the configuration
    and the boot file contents.  Must be called from a simulated
    process.  The callback is reserved for customization and may be
    [None]. *)
