module Binc = Ode_util.Binc

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Oid of Oid.t
  | List of t list

exception Type_error of string

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | Str _ -> "string"
  | Oid _ -> "oid"
  | List _ -> "list"

let type_error expected v =
  raise (Type_error (Printf.sprintf "expected %s, got %s" expected (type_name v)))

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool a, Bool b -> Bool.equal a b
  | Int a, Int b -> Int.equal a b
  | Float a, Float b -> Float.equal a b
  | Str a, Str b -> String.equal a b
  | Oid a, Oid b -> Oid.equal a b
  | List a, List b -> List.length a = List.length b && List.for_all2 equal a b
  | (Null | Bool _ | Int _ | Float _ | Str _ | Oid _ | List _), _ -> false

let constructor_rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | Str _ -> 4
  | Oid _ -> 5
  | List _ -> 6

let rec compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool a, Bool b -> Bool.compare a b
  | Int a, Int b -> Int.compare a b
  | Float a, Float b -> Float.compare a b
  | Str a, Str b -> String.compare a b
  | Oid a, Oid b -> Oid.compare a b
  | List a, List b -> List.compare compare a b
  | _, _ -> Int.compare (constructor_rank a) (constructor_rank b)

let rec pp fmt = function
  | Null -> Format.pp_print_string fmt "null"
  | Bool b -> Format.pp_print_bool fmt b
  | Int i -> Format.pp_print_int fmt i
  | Float f -> Format.fprintf fmt "%g" f
  | Str s -> Format.fprintf fmt "%S" s
  | Oid oid -> Oid.pp fmt oid
  | List vs ->
      Format.fprintf fmt "[%a]" (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ") pp) vs

let to_string v = Format.asprintf "%a" pp v

let to_bool = function Bool b -> b | v -> type_error "bool" v
let to_int = function Int i -> i | v -> type_error "int" v
let to_float = function Float f -> f | Int i -> float_of_int i | v -> type_error "float" v
let to_str = function Str s -> s | v -> type_error "string" v
let to_oid = function Oid oid -> oid | v -> type_error "oid" v
let to_list = function List vs -> vs | v -> type_error "list" v

let rec write w = function
  | Null -> Binc.write_uvarint w 0
  | Bool b ->
      Binc.write_uvarint w 1;
      Binc.write_bool w b
  | Int i ->
      Binc.write_uvarint w 2;
      Binc.write_varint w i
  | Float f ->
      Binc.write_uvarint w 3;
      Binc.write_float w f
  | Str s ->
      Binc.write_uvarint w 4;
      Binc.write_string w s
  | Oid oid ->
      Binc.write_uvarint w 5;
      Binc.write_uvarint w (Oid.to_int oid)
  | List vs ->
      Binc.write_uvarint w 6;
      Binc.write_list w (write w) vs

let rec read r =
  match Binc.read_uvarint r with
  | 0 -> Null
  | 1 -> Bool (Binc.read_bool r)
  | 2 -> Int (Binc.read_varint r)
  | 3 -> Float (Binc.read_float r)
  | 4 -> Str (Binc.read_string r)
  | 5 -> Oid (Oid.of_int (Binc.read_uvarint r))
  | 6 -> List (Binc.read_list r (fun () -> read r))
  | n -> raise (Binc.Corrupt (Printf.sprintf "bad value tag %d" n))

(* Mirrors [read] without building the value. *)
let rec skip r =
  match Binc.read_uvarint r with
  | 0 -> ()
  | 1 -> ignore (Binc.read_bool r)
  | 2 | 5 -> ignore (Binc.read_uvarint r)
  | 3 -> Binc.skip r 8
  | 4 -> Binc.skip r (Binc.read_uvarint r)
  | 6 ->
      for _ = 1 to Binc.read_uvarint r do
        skip r
      done
  | n -> raise (Binc.Corrupt (Printf.sprintf "bad value tag %d" n))

let encode v =
  let w = Binc.writer () in
  write w v;
  Binc.contents w

let decode bytes = read (Binc.reader bytes)
