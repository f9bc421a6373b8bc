type writer = Buffer.t

let writer () = Buffer.create 64

let contents w = Buffer.to_bytes w
let length = Buffer.length

(* The byte loop treats the int as an unsigned 63-bit quantity ([lsr]
   everywhere), so zigzag outputs — which may be negative as OCaml ints —
   encode correctly. *)
let rec write_raw_uvarint w n =
  if n lsr 7 = 0 then Buffer.add_char w (Char.chr (n land 0x7f))
  else begin
    Buffer.add_char w (Char.chr (0x80 lor (n land 0x7f)));
    write_raw_uvarint w (n lsr 7)
  end

let write_uvarint w n =
  if n < 0 then invalid_arg "Binc.write_uvarint: negative";
  write_raw_uvarint w n

let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))

let unzigzag n = (n lsr 1) lxor (-(n land 1))

let write_varint w n = write_raw_uvarint w (zigzag n)

let write_bool w b = Buffer.add_char w (if b then '\001' else '\000')

let write_float w f =
  let bits = Int64.bits_of_float f in
  for i = 0 to 7 do
    Buffer.add_char w (Char.chr (Int64.to_int (Int64.shift_right_logical bits (i * 8)) land 0xff))
  done

let write_bytes w b =
  write_uvarint w (Bytes.length b);
  Buffer.add_bytes w b

let write_string w s =
  write_uvarint w (String.length s);
  Buffer.add_string w s

let write_list w f l =
  write_uvarint w (List.length l);
  List.iter f l

type reader = { buf : bytes; mutable pos : int }

exception Corrupt of string

let reader ?(pos = 0) buf = { buf; pos }

let pos r = r.pos

let at_end r = r.pos >= Bytes.length r.buf

let byte r =
  if r.pos >= Bytes.length r.buf then raise (Corrupt "unexpected end of input");
  let c = Bytes.get r.buf r.pos in
  r.pos <- r.pos + 1;
  Char.code c

(* Top-level loops rather than local closures: field access reads
   varints on every call and should not allocate for them. *)
let rec uvarint_from r shift acc =
  if shift > 56 then raise (Corrupt "varint too long");
  let b = byte r in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else uvarint_from r (shift + 7) acc

let read_uvarint r = uvarint_from r 0 0

let read_varint r = unzigzag (read_uvarint r)

let read_bool r =
  match byte r with
  | 0 -> false
  | 1 -> true
  | n -> raise (Corrupt (Printf.sprintf "bad bool byte %d" n))

let read_float r =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (byte r)) (i * 8))
  done;
  Int64.float_of_bits !bits

let take r len =
  if len < 0 || len > Bytes.length r.buf - r.pos then raise (Corrupt "bytes field truncated");
  let start = r.pos in
  r.pos <- r.pos + len;
  start

let skip r len = ignore (take r len)

let read_bytes r =
  let len = read_uvarint r in
  Bytes.sub r.buf (take r len) len

let read_string r =
  let len = read_uvarint r in
  Bytes.sub_string r.buf (take r len) len

let rec equal_from buf start s i =
  i = String.length s || (Bytes.get buf (start + i) = String.get s i && equal_from buf start s (i + 1))

let string_equals r s =
  let len = read_uvarint r in
  let start = take r len in
  len = String.length s && equal_from r.buf start s 0

let read_list r f =
  let len = read_uvarint r in
  List.init len (fun _ -> f ())
