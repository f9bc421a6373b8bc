(** Deterministic fault-injection plane.

    Every observable I/O action in the storage stack — physical page
    reads/writes/allocations ({!Pager}), buffer-pool evictions
    ({!Buffer_pool}), WAL flushes ({!Wal}) and record-lock acquisitions
    ({!Disk_store}) — reports to a shared plane before performing the
    action, and so does every send of a replication primary to one of
    its replicas ([Ode_replication.Replication]). The plane numbers these
    reports with a single monotone {e I/O-point} counter (and a per-site
    counter), so every failure site in a deterministic run is
    addressable by an integer and replayable.

    A {e fault plan} is pure data: a list of rules, each pairing a
    selector (which I/O points) with an action (what goes wrong there).
    Plans round-trip through a compact string syntax
    ({!plan_of_string} / {!plan_to_string}) so a failing crash point found
    by a sweep ({!Sweep}) can be replayed from the command line
    ([odectl faults --fault-plan "crash@137"]).

    Actions:
    - [Fail] — the I/O raises {!Injected_fault} and does not happen; the
      storage stack treats it like a transient device error (at a
      [Lock_acquire] site it models a lock-acquisition timeout). The
      store object survives.
    - [Crash] — raise {!Injected_crash} {e before} the I/O happens. Once
      a crash fires the plane is dead: every later report raises
      {!Injected_crash} too, so post-crash cleanup cannot silently touch
      the "disk". Recover via the WAL as after a real crash.
    - [Torn f] — the I/O is torn: only the first fraction [f] of the
      bytes reaches the medium (a partial page write, or a WAL flush
      truncated mid-record), then the plane crashes as for [Crash]. At
      a [Ship] site a torn send acts as [Crash]: no partial chunk
      leaves the primary.

    The plane is inert by default: a store created without a plan still
    counts I/O points (that is how a sweep learns the address space) but
    never fails. *)

type site =
  | Page_read
  | Page_write
  | Page_alloc
  | Pool_evict
  | Wal_flush
  | Lock_acquire
  | Ship  (** one replication send: per replica and per stream, before the send *)

type action =
  | Fail
  | Crash
  | Torn of float  (** surviving fraction of the bytes, in [0, 1] *)

type selector =
  | At of int  (** the Nth global I/O point (1-based) *)
  | Nth of site * int  (** the Nth occurrence of [site] (1-based) *)
  | Every of { site : site; period : int; phase : int }
      (** occurrences [phase], [phase+period], ... of [site] (1-based) *)
  | Chance of { site : site option; rate : float; salt : int }
      (** deterministic pseudo-random: fires at a site occurrence iff a
          pure hash of [(salt, global point)] falls below [rate]. [None]
          matches every site. Same salt, same run — same faults. *)

type rule = { sel : selector; act : action }

type plan = rule list

exception Injected_fault of { point : int; site : site }
(** Transient injected error: the I/O did not happen; the store is still
    usable (the enclosing transaction is expected to abort). *)

exception Injected_crash of { point : int; site : site }
(** Injected crash: the process is considered dead at [point]. Only the
    WAL's durable prefix survives; recover with {!Recovery}. *)

type t

val create : ?plan:plan -> unit -> t
(** A fresh plane. With no [plan] it only counts points. *)

val arm : t -> plan -> unit
(** Replace the plan (counters are not reset; see {!reset}). *)

val reset : t -> unit
(** Zero all counters, clear the fired log and un-crash the plane. The
    plan is kept. *)

val point : t -> int
(** Global I/O points consumed so far. *)

val site_count : t -> site -> int

val fired : t -> (int * site * action) list
(** Faults actually injected, oldest first: (global point, site, action). *)

(* ---- call sites (the storage layer and the replication shipper) ---- *)

val check : t -> site -> [ `Proceed | `Torn of float ]
(** Report one I/O point at [site]. Raises {!Injected_fault} or
    {!Injected_crash} per the first matching rule; returns [`Torn f] when
    the matching rule tears the write (the caller must write only the
    prefix and then call {!torn_crash}); returns [`Proceed] otherwise. *)

val torn_crash : t -> site -> 'a
(** Finish a torn write: mark the plane crashed and raise
    {!Injected_crash} at the current point. *)

(* ---- plan syntax ---- *)

val plan_of_string : string -> (plan, string) result
(** Parse a plan. Rules are separated by [;] or [,]; each rule is
    [ACTION@SELECTOR]:
    - actions: [fail], [crash], [torn] (default fraction 0.5), [torn(F)]
    - selectors: a bare integer (global point), [SITE] (every occurrence),
      [SITE:N] (Nth occurrence), [SITE%P] or [SITE%P+K] (every Pth,
      phase K), [SITE~R] or [SITE~R#SALT] (chance R, deterministic salt)
    - sites: [page_read], [page_write], [page_alloc], [pool_evict],
      [wal_flush], [lock_acquire], [ship], or [*] (chance selectors
      only).

    Examples: ["crash@137"], ["torn(0.3)@wal_flush:2"],
    ["fail@lock_acquire%7+3"], ["crash@ship:3"], ["crash@*~0.001#42"]. *)

val plan_to_string : plan -> string
(** Inverse of {!plan_of_string} (up to float formatting). *)

val site_to_string : site -> string
