(** Bounded SPSC mailbox with an unbounded side lane for peer forwards.

    The router→shard lane is a fixed ring: {!push} blocks when it is
    full, giving the fleet back-pressure. The shard→shard lane
    ({!push_forward}) is unbounded so cross-shard envelope delivery can
    never deadlock two mutually-full shards; {!Sharded}'s quiescence
    counter bounds it logically. {!pop} serves the forward lane first. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] unless [capacity > 0]. *)

val push : 'a t -> 'a -> unit
(** Producer side of the bounded ring; blocks while full. *)

val push_forward : 'a t -> 'a -> unit
(** Unbounded MPSC lane; never blocks. *)

val push_forward_many : 'a t -> 'a list -> unit
(** Push a whole batch (in list order) through the forward lane with a
    single lock acquisition and consumer signal. *)

val pop : 'a t -> 'a
(** Blocks while both lanes are empty. *)

val high_water : 'a t -> int
(** Highest combined occupancy ever observed — each shard registers it
    as its [fleet.mailbox_hwm] peak. *)
