(** Persistent object records: the stored shape of an O++ object.

    A record carries the object's dynamic class name and its field map.
    Crucially for the paper's design goal 5, it carries {e no} trigger
    state: adding or removing triggers from a class never changes the
    storage layout of its objects. *)

type t = { cls : string; fields : (string * Value.t) list }

val make : cls:string -> fields:(string * Value.t) list -> t
(** Field names must be distinct; raises [Invalid_argument] otherwise. *)

val get : t -> string -> Value.t
(** Raises [Not_found] for an unknown field. *)

val get_opt : t -> string -> Value.t option

val set : t -> string -> Value.t -> t
(** Functional field update; raises [Not_found] for an unknown field (the
    schema is fixed at creation). *)

val field_names : t -> string list

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val encode : t -> bytes
val decode : bytes -> t

(** {2 Access in the encoded bytes}

    These work on the bytes [encode] produces, as the store returns them,
    and build only what they return. All raise
    {!Ode_util.Binc.Corrupt} on malformed input they scan. *)

val cls_of_payload : bytes -> string

val field_of_payload : bytes -> string -> Value.t
(** [field_of_payload b f = get (decode b) f]; raises [Not_found] for an
    unknown field. *)

val with_field : bytes -> string -> Value.t -> bytes
(** A copy with the field's value replaced, byte-identical to
    [encode (set (decode b) f v)]; raises [Not_found] for an unknown
    field. *)
