(** The Internet one's-complement checksum (RFC 1071), used by the IP
    header, IL, TCP and UDP. *)

val ones_sum : ?init:int -> string -> int -> int -> int
(** [ones_sum ?init s off len] folds the 16-bit one's-complement sum of
    [len] bytes of [s] starting at [off] into [init] (default 0).  An
    odd final byte is padded with zero. *)

val finish : int -> int
(** Fold carries and complement: the value to store in a checksum
    field. *)

val checksum : string -> int
(** [finish (ones_sum s 0 (length s))]. *)

val valid : string -> bool
(** A buffer whose checksum field was filled with {!checksum} sums to
    zero. *)

val valid_sub : string -> int -> int -> bool
(** [valid_sub s off len] is {!valid} on [len] bytes of [s] at [off],
    checked in place. *)
