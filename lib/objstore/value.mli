(** Dynamic values: the field and parameter domain of persistent objects.

    O++ objects carry typed C++ members; the reproduction's runtime DSL
    stores fields, trigger parameters and event payloads as [Value.t], with
    a deterministic binary codec (no [Marshal]) so the same bytes round-trip
    across the disk and main-memory stores and across crash recovery. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Oid of Oid.t
  | List of t list

exception Type_error of string
(** Raised by the [to_*] accessors on a constructor mismatch. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val to_bool : t -> bool
val to_int : t -> int
val to_float : t -> float
(** [to_float] also accepts [Int] (numeric widening). *)

val to_str : t -> string
val to_oid : t -> Oid.t
val to_list : t -> t list

val write : Ode_util.Binc.writer -> t -> unit
val read : Ode_util.Binc.reader -> t

val skip : Ode_util.Binc.reader -> unit
(** Advance past one encoded value without building it; raises
    {!Ode_util.Binc.Corrupt} where [read] would. *)

val encode : t -> bytes
val decode : bytes -> t
(** Raises {!Ode_util.Binc.Corrupt} on malformed input. *)
