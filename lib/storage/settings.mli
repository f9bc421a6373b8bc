(** A record store's settings, given once.

    {!Disk_store.create}, {!Mem_store.create} and {!Recovery} take this
    record, and a session keeps it in its crash image, so a recovered or
    promoted store runs with exactly the settings it crashed with.
    {!default} is the one place the defaults live. *)

type t = {
  page_size : int;  (** disk page bytes; ignored by the main-memory store *)
  pool_capacity : int;  (** buffer-pool frames; ignored by the main-memory store *)
  io_spin : int;
      (** simulated per-page-I/O device latency (see {!Pager.create});
          ignored by the main-memory store *)
  flush_spin : int;
      (** simulated per-log-force latency, busy-looped (see {!Wal.create}).
          Both stores force a log, so it applies to both. *)
  flush_sleep : int;
      (** the blocking variant of [flush_spin], in nanoseconds: sleeping log
          forces overlap across {!Ode_parallel} shard domains like
          independent WAL devices *)
  durability : Commit_pipeline.mode;  (** the commit pipeline's mode *)
  wal_segment_bytes : int;
      (** seal WAL segments at this size so full checkpoints can retire
          them ({!Wal.retire_below}); 0 = never *)
  ckpt_full_every : int;
      (** every Nth checkpoint is a full anchor, with incremental
          [Ckpt_delta] manifests between; must be >= 1 (1 = always full) *)
  auto_checkpoint_bytes : int;
      (** arm {!Commit_pipeline.auto_checkpoint_due} at this much WAL growth
          past the last checkpoint; 0 = off *)
}

val default : t
(** 4096-byte pages, 64 frames, no simulated latency, [Immediate]
    durability (a log force per commit), no segment rotation, every
    checkpoint full, no automatic checkpoint. *)
