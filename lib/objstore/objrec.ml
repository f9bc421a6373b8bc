module Binc = Ode_util.Binc

type t = { cls : string; fields : (string * Value.t) list }

let make ~cls ~fields =
  let names = List.map fst fields in
  let distinct = List.sort_uniq String.compare names in
  if List.length distinct <> List.length names then
    invalid_arg ("Objrec.make: duplicate field in class " ^ cls);
  { cls; fields }

let get t name =
  match List.assoc_opt name t.fields with
  | Some v -> v
  | None -> raise Not_found

let get_opt t name = List.assoc_opt name t.fields

let set t name v =
  if not (List.mem_assoc name t.fields) then raise Not_found;
  { t with fields = List.map (fun (n, old) -> if String.equal n name then (n, v) else (n, old)) t.fields }

let field_names t = List.map fst t.fields

let equal a b =
  String.equal a.cls b.cls
  && List.length a.fields = List.length b.fields
  && List.for_all2
       (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && Value.equal v1 v2)
       a.fields b.fields

let pp fmt t =
  let pp_field fmt (n, v) = Format.fprintf fmt "%s=%a" n Value.pp v in
  Format.fprintf fmt "%s{%a}" t.cls
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ") pp_field)
    t.fields

let encode t =
  let w = Binc.writer () in
  Binc.write_string w t.cls;
  let field (n, v) =
    Binc.write_string w n;
    Value.write w v
  in
  Binc.write_list w field t.fields;
  Binc.contents w

let decode bytes =
  let r = Binc.reader bytes in
  let cls = Binc.read_string r in
  let field () =
    let n = Binc.read_string r in
    let v = Value.read r in
    (n, v)
  in
  let fields = Binc.read_list r field in
  { cls; fields }

(* Field access on the encoded bytes ([encode]'s layout: the class
   string, then a counted list of (name, value) pairs). Only the class or
   the one field asked for is built. *)

let cls_of_payload bytes =
  (* A name shorter than 128 bytes has a one-byte length: no reader. *)
  let len = if Bytes.length bytes > 0 then Char.code (Bytes.get bytes 0) else 0x80 in
  if len < 0x80 && len < Bytes.length bytes then Bytes.sub_string bytes 1 len
  else Binc.read_string (Binc.reader bytes)

let rec find_field r name remaining =
  if remaining = 0 then raise Not_found
  else if Binc.string_equals r name then r
  else begin
    Value.skip r;
    find_field r name (remaining - 1)
  end

(* A reader positioned at the named field's value. *)
let seek_field bytes name =
  let r = Binc.reader bytes in
  Binc.skip r (Binc.read_uvarint r);
  find_field r name (Binc.read_uvarint r)

let field_of_payload bytes name = Value.read (seek_field bytes name)

let with_field bytes name v =
  let r = seek_field bytes name in
  let start = Binc.pos r in
  Value.skip r;
  let stop = Binc.pos r in
  let value = Value.encode v in
  let vlen = Bytes.length value and tail = Bytes.length bytes - stop in
  let out = Bytes.create (start + vlen + tail) in
  Bytes.blit bytes 0 out 0 start;
  Bytes.blit value 0 out start vlen;
  Bytes.blit bytes stop out (start + vlen) tail;
  out
