module Metrics = Ode_util.Metrics

type t = {
  page_size : int;
  io_spin : int;
  faults : Faults.t;
  mutable pages : bytes array;
  mutable used : int;
  metrics : Metrics.t;
  reads : Metrics.counter;
  writes : Metrics.counter;
}

let create ?(io_spin = 0) ?faults ~page_size () =
  let faults = match faults with Some f -> f | None -> Faults.create () in
  let m = Metrics.create () in
  let t =
    {
      page_size;
      io_spin;
      faults;
      pages = Array.make 8 Bytes.empty;
      used = 0;
      metrics = m;
      reads = Metrics.counter m "page_reads";
      writes = Metrics.counter m "page_writes";
    }
  in
  Metrics.gauge m "pages" (fun () -> t.used);
  t

let metrics t = t.metrics

let faults t = t.faults

(* Simulated device latency. *)
let spin t =
  let acc = ref 0 in
  for i = 1 to t.io_spin do
    acc := !acc + i
  done;
  ignore (Sys.opaque_identity !acc)

let page_size t = t.page_size

let grow t =
  let cap = Array.length t.pages in
  if t.used >= cap then begin
    let pages = Array.make (cap * 2) Bytes.empty in
    Array.blit t.pages 0 pages 0 cap;
    t.pages <- pages
  end

let alloc t =
  (match Faults.check t.faults Faults.Page_alloc with
  | `Proceed -> ()
  | `Torn _ -> Faults.torn_crash t.faults Faults.Page_alloc);
  grow t;
  let id = t.used in
  t.pages.(id) <- Page.to_bytes (Page.create ~size:t.page_size);
  t.used <- t.used + 1;
  id

let check t id = if id < 0 || id >= t.used then invalid_arg "Pager: unknown page id"

let read t id =
  check t id;
  (match Faults.check t.faults Faults.Page_read with
  | `Proceed -> ()
  | `Torn _ ->
      (* A read cannot be torn; treat as a failed I/O. *)
      raise (Faults.Injected_fault { point = Faults.point t.faults; site = Faults.Page_read }));
  Metrics.incr t.reads;
  spin t;
  Page.of_bytes t.pages.(id)

let write t id page =
  check t id;
  let verdict = Faults.check t.faults Faults.Page_write in
  Metrics.incr t.writes;
  spin t;
  match verdict with
  | `Proceed -> t.pages.(id) <- Page.to_bytes page
  | `Torn f ->
      (* Partial sector write: the first [f] of the new image lands, the
         rest of the page keeps its previous contents — then the crash. *)
      let fresh = Page.to_bytes page in
      let keep = int_of_float (f *. float_of_int (Bytes.length fresh)) in
      let keep = max 0 (min (Bytes.length fresh) keep) in
      let old = t.pages.(id) in
      let merged = Bytes.copy old in
      Bytes.blit fresh 0 merged 0 keep;
      t.pages.(id) <- merged;
      Faults.torn_crash t.faults Faults.Page_write
