(** IPv4 addresses and masks. *)

type t = private int
(** An IPv4 address, held as an immediate int in 0 .. 2{^32}-1 so
    tables key on it and compare it without boxing; [(a :> int)] reads
    it. *)

val of_string : string -> t
(** Dotted decimal.  @raise Invalid_argument on malformed input. *)

val of_string_opt : string -> t option
val to_string : t -> string
val of_int : int -> t
(** The low 32 bits of an int — how the wire codecs read an address. *)

val compare : t -> t -> int
(** Unsigned numeric order: 10.0.0.1 sorts before 135.104.9.2. *)

val equal : t -> t -> bool

val any : t
(** 0.0.0.0 — the "*" of announce strings. *)

val broadcast : t
(** 255.255.255.255 *)

val logand : t -> t -> t
(** Bitwise AND (address & mask). *)

val in_subnet : t -> net:t -> mask:t -> bool

val class_mask : t -> t
(** The classful (A/B/C) natural mask of an address — what ndb uses
    when an [ipnet] entry gives no [ipmask]. *)

val masklen : t -> int
(** Population count of a mask — its prefix length. *)
