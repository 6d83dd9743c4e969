(** Poly1305 one-time authenticator (RFC 8439). Combined with
    {!Chacha20} it forms Mycelium's AE scheme for telescoping-circuit
    control messages and the innermost onion layer. *)

val tag_size : int (* 16 *)

val mac : key:bytes -> bytes -> bytes
(** [mac ~key msg] with a 32-byte one-time key; returns 16 bytes. *)

val verify : key:bytes -> tag:bytes -> bytes -> bool
(** Constant-time-shaped comparison of the expected and received tag. *)

(** {1 Streaming form}

    [init], any number of [absorb] calls, then one [finish] or [check]:
    the tag equals {!mac} over the concatenation of the absorbed ranges,
    however they are split. A state is single-use. *)

type state

val init : key:bytes -> state

val absorb : state -> bytes -> pos:int -> len:int -> unit
(** Feed [len] bytes of the buffer from [pos]; no copy of whole blocks. *)

val finish : state -> dst:bytes -> dst_pos:int -> unit
(** Write the 16-byte tag at [dst_pos]. *)

val check : state -> tag:bytes -> tag_pos:int -> bool
(** [finish] and compare, constant-time-shaped, with the 16 bytes of
    [tag] at [tag_pos]. *)
