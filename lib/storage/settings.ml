type t = {
  page_size : int;
  pool_capacity : int;
  io_spin : int;
  flush_spin : int;
  flush_sleep : int;
  durability : Commit_pipeline.mode;
  wal_segment_bytes : int;
  ckpt_full_every : int;
  auto_checkpoint_bytes : int;
}

let default =
  {
    page_size = 4096;
    pool_capacity = 64;
    io_spin = 0;
    flush_spin = 0;
    flush_sleep = 0;
    durability = Commit_pipeline.Immediate;
    wal_segment_bytes = 0;
    ckpt_full_every = 1;
    auto_checkpoint_bytes = 0;
  }
