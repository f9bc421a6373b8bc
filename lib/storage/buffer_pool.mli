(** Fixed-capacity LRU buffer pool over a {!Pager}.

    All page access in the disk store goes through [with_page]; the pool
    tracks dirty frames and writes them back on eviction or on
    [flush_all]. Hit/miss/eviction counters feed experiment T7. *)

type t

val create : ?faults:Faults.t -> Pager.t -> capacity:int -> t
(** [capacity] is the number of frames; must be positive. [faults] is the
    fault-injection plane consulted before each eviction (the dirty
    writeback itself additionally reports to the pager's [Page_write]
    point); default: a fresh inert plane. *)

val with_page : t -> int -> dirty:bool -> (Page.t -> 'a) -> 'a
(** Run a function against the in-memory frame for the page, faulting it in
    if needed. If [dirty], the frame is marked for writeback. The page value
    must not escape the callback. *)

val flush_all : t -> unit
(** Write back every dirty frame (keeps them cached). *)

val drop_all : t -> unit
(** Discard every frame without writeback — the crash primitive. *)

val metrics : t -> Ode_util.Metrics.t
(** Counters [pool_hits], [pool_misses], [pool_evictions],
    [pool_writebacks]. *)
