(** Simulated disk: a vector of page images with I/O accounting.

    The pager stands in for the EOS volume underneath the disk store. It
    counts physical reads and writes so the benchmarks can compare the
    disk-based and main-memory configurations (experiment T7). Durability is
    provided by the WAL, not by the pager: a simulated crash discards the
    buffer pool and rebuilds pages from the log, mirroring the reproduction's
    redo-only recovery scheme. *)

type t

val create : ?io_spin:int -> ?faults:Faults.t -> page_size:int -> unit -> t
(** [io_spin] simulates device latency: each physical read/write busy-loops
    that many iterations (default 0). Used by the disk-vs-main-memory
    benchmark to give page I/O a realistic relative cost. [faults] is the
    fault-injection plane consulted before every physical read, write and
    allocation (default: a fresh inert plane). *)

val faults : t -> Faults.t

val page_size : t -> int

val alloc : t -> int
(** Allocate a fresh zeroed page; returns its page id. *)

val read : t -> int -> Page.t
(** Physical read (counted). Raises [Invalid_argument] on an unknown id. *)

val write : t -> int -> Page.t -> unit
(** Physical write (counted). *)

val metrics : t -> Ode_util.Metrics.t
(** Counters [page_reads], [page_writes]; gauge [pages]. *)
