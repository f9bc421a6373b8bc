module Binc = Ode_util.Binc
module Oid = Ode_objstore.Oid
module Value = Ode_objstore.Value

type t = {
  triggernum : int;
  trigobj : Oid.t;
  trigobjtype : string;
  statenum : int;
  args : Value.t list;
  anchors : Oid.t list;
}

let dead_state = Ode_event.Fsm.dead

type phoenix_entry = {
  ph_cls : string;
  ph_triggernum : int;
  ph_obj : Oid.t;
  ph_args : Value.t list;
  ph_ev_args : Value.t list;
}

type any = State of t | Phoenix of phoenix_entry

type index_view = {
  iv_triggernum : int;
  iv_trigobj : Oid.t;
  iv_trigobjtype : string;
  iv_statenum : int;
  iv_anchors : Oid.t list;
}

type id = Ode_storage.Rid.t

let encode t =
  let w = Binc.writer () in
  Binc.write_uvarint w 0;
  Binc.write_uvarint w t.triggernum;
  Binc.write_uvarint w (Oid.to_int t.trigobj);
  Binc.write_string w t.trigobjtype;
  Binc.write_varint w t.statenum;
  Binc.write_list w (Value.write w) t.args;
  Binc.write_list w (fun oid -> Binc.write_uvarint w (Oid.to_int oid)) t.anchors;
  Binc.contents w

let encode_phoenix p =
  let w = Binc.writer () in
  Binc.write_uvarint w 1;
  Binc.write_string w p.ph_cls;
  Binc.write_uvarint w p.ph_triggernum;
  Binc.write_uvarint w (Oid.to_int p.ph_obj);
  Binc.write_list w (Value.write w) p.ph_args;
  Binc.write_list w (Value.write w) p.ph_ev_args;
  Binc.contents w

let bad_tag n = raise (Binc.Corrupt (Printf.sprintf "bad trigger record tag %d" n))
let read_anchors r = Binc.read_list r (fun () -> Oid.of_int (Binc.read_uvarint r))

let decode bytes =
  let r = Binc.reader bytes in
  match Binc.read_uvarint r with
  | 0 ->
      let triggernum = Binc.read_uvarint r in
      let trigobj = Oid.of_int (Binc.read_uvarint r) in
      let trigobjtype = Binc.read_string r in
      let statenum = Binc.read_varint r in
      let args = Binc.read_list r (fun () -> Value.read r) in
      let anchors = read_anchors r in
      State { triggernum; trigobj; trigobjtype; statenum; args; anchors }
  | 1 ->
      let ph_cls = Binc.read_string r in
      let ph_triggernum = Binc.read_uvarint r in
      let ph_obj = Oid.of_int (Binc.read_uvarint r) in
      let ph_args = Binc.read_list r (fun () -> Value.read r) in
      let ph_ev_args = Binc.read_list r (fun () -> Value.read r) in
      Phoenix { ph_cls; ph_triggernum; ph_obj; ph_args; ph_ev_args }
  | n -> bad_tag n

let decode_index bytes =
  let r = Binc.reader bytes in
  match Binc.read_uvarint r with
  | 0 ->
      let iv_triggernum = Binc.read_uvarint r in
      let iv_trigobj = Oid.of_int (Binc.read_uvarint r) in
      let iv_trigobjtype = Binc.read_string r in
      let iv_statenum = Binc.read_varint r in
      for _ = 1 to Binc.read_uvarint r do
        Value.skip r
      done;
      let iv_anchors = read_anchors r in
      Some { iv_triggernum; iv_trigobj; iv_trigobjtype; iv_statenum; iv_anchors }
  | 1 -> None
  | n -> bad_tag n

let with_statenum t statenum = { t with statenum }

let equal a b =
  a.triggernum = b.triggernum
  && Oid.equal a.trigobj b.trigobj
  && String.equal a.trigobjtype b.trigobjtype
  && a.statenum = b.statenum
  && List.length a.args = List.length b.args
  && List.for_all2 Value.equal a.args b.args
  && List.equal Oid.equal a.anchors b.anchors

let pp fmt t =
  Format.fprintf fmt "trigger#%d on %a (class %s, state %d, args [%a])" t.triggernum Oid.pp
    t.trigobj t.trigobjtype t.statenum
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ") Value.pp)
    t.args
