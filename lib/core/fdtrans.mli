(** 9P transports over open file descriptors.

    On IL and URP one write is one delimited message, so 9P messages
    map directly onto reads and writes of the data file.  TCP "does not
    preserve delimiters", so [framed:true] applies the length-prefix
    marshalling ({!Ninep.Fcall.Frame}) — the paper: "we provide
    mechanisms to marshal messages before handing them to the
    system". *)

val of_fd :
  ?framed:bool -> Vfs.Env.t -> Vfs.Env.fd -> Ninep.Transport.t
(** The caller keeps ownership of any other descriptors; [t_close]
    closes this one. *)

val of_conn : Vfs.Env.t -> dir:string -> Vfs.Env.fd -> Ninep.Transport.t
(** {!of_fd} for a descriptor on the conversation directory [dir] (a
    {!Dial.conn}'s [dir]), framed when the conversation runs on a byte
    stream: TCP and TCP with congestion control. *)
