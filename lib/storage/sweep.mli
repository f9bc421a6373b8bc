(** The crash-sweep loop: one loop over the fault points of a
    fault-free baseline.

    A sweep runs a deterministic workload once without faults and reads
    the points its {!Faults} plane counted. It then re-runs the workload
    once per plan built from those counts. The caller supplies the
    workload and its checks as one {!runner}. This module does what every
    sweep repeats: it builds the plans, checks from each run's fired log
    that the planned fault fired where it was aimed, and tags every
    violation with the plan that replays it ({!Faults.plan_to_string}). *)

type family =
  | Points of { stride : int }
      (** [crash@p] at every [stride]-th global point [p] of the
          baseline, from 1 *)
  | Site of { site : Faults.site; every : int; acts : int -> Faults.action list }
      (** at every [every]-th occurrence [k] of [site] in the baseline,
          from 1: one [act@site:k] plan per action in [acts k] *)

val plans : Faults.t -> family list -> Faults.plan list
(** The plans of each family over the baseline plane's counts, family by
    family. *)

type runner = Faults.plan -> Faults.t * string list
(** Run the workload under a plan. Returns the plane the run reported to
    and the violations the workload's own checks found. *)

val run :
  ?on_progress:(done_:int -> total:int -> unit) ->
  Faults.plan list ->
  runner ->
  (string * string) list
(** Run every plan, in order. Returns [(plan, violation)] pairs in plan
    order: the runner's violations, plus "planned fault never fired" when
    the plane's fired log is empty and "fault fired at point q, not p"
    when an [At p] plan first fired elsewhere. *)

type result = {
  baseline : Faults.t;  (** the fault-free run's plane: the sweep's domain *)
  plans : int;  (** plans run *)
  violations : (string * string) list;  (** (plan, violation), in plan order *)
}

val sweep :
  ?on_progress:(done_:int -> total:int -> unit) ->
  baseline:Faults.t ->
  family list ->
  runner ->
  result
(** {!run} over {!plans}[ baseline families]. *)
