(** Explicit binary codec used for everything the reproduction persists
    (WAL records, object values, trigger states).

    We deliberately avoid [Marshal]: an explicit, versioned, length-prefixed
    encoding keeps on-disk bytes deterministic across runs, which the
    recovery tests rely on. Integers use LEB128-style varints with zigzag for
    signed values; floats are stored as their IEEE-754 bit pattern. *)

type writer

val writer : unit -> writer
val contents : writer -> bytes
val length : writer -> int  (** Bytes written so far. *)

val write_uvarint : writer -> int -> unit
(** Unsigned varint; the argument must be non-negative. *)

val write_varint : writer -> int -> unit
(** Signed varint (zigzag). *)

val write_bool : writer -> bool -> unit
val write_float : writer -> float -> unit
val write_bytes : writer -> bytes -> unit
val write_string : writer -> string -> unit
val write_list : writer -> ('a -> unit) -> 'a list -> unit
(** Length-prefixed list; the callback writes one element into this
    writer. *)

type reader

val reader : ?pos:int -> bytes -> reader
val pos : reader -> int
val at_end : reader -> bool

exception Corrupt of string
(** Raised by all [read_*] functions on truncated or malformed input. *)

val read_uvarint : reader -> int
val read_varint : reader -> int
val read_bool : reader -> bool
val read_float : reader -> float
val read_bytes : reader -> bytes
val read_string : reader -> string
val read_list : reader -> (unit -> 'a) -> 'a list

val skip : reader -> int -> unit
(** Advance past [n] bytes without reading them. *)

val string_equals : reader -> string -> bool
(** Read past a length-prefixed string (as written by {!write_string})
    and tell whether it equals the argument, without allocating. *)
