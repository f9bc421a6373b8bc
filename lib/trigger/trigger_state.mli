(** Persistent per-activation trigger state — the paper's [TriggerState]
    (§5.4.1) — plus the durable phoenix-queue entries (§6 extension).

    A [TriggerState] records which trigger ([triggernum]), on which object
    ([trigobj]), defined by which class ([trigobjtype], needed because an
    object can carry active triggers from several base classes), the
    current FSM state ([statenum]), and the activation arguments (Ode
    passes trigger parameters at activation time and stores them
    persistently, unlike Sentinel's transient event parameters, §7).

    Both record kinds share one store; a leading tag byte distinguishes
    them so the activation-index rebuild can skip phoenix entries. *)

type t = {
  triggernum : int;  (** index into the defining class's TriggerInfo array *)
  trigobj : Ode_objstore.Oid.t;
  trigobjtype : string;  (** defining class name (metatype reference) *)
  statenum : int;  (** current FSM state; [dead_state] when failed *)
  args : Ode_objstore.Value.t list;
  anchors : Ode_objstore.Oid.t list;
      (** extra anchor objects for inter-object triggers (§8 extension):
          their events are also routed to this activation. Empty for the
          paper's intra-object triggers. *)
}

val dead_state : int
(** Sentinel [statenum] for an anchored machine that can no longer
    accept: {!Ode_event.Fsm.dead}, the state {!Ode_event.Fsm.advance}
    reports for a killed machine. *)

type phoenix_entry = {
  ph_cls : string;
  ph_triggernum : int;
  ph_obj : Ode_objstore.Oid.t;
  ph_args : Ode_objstore.Value.t list;
  ph_ev_args : Ode_objstore.Value.t list;  (** completing event's payload *)
}

type any = State of t | Phoenix of phoenix_entry

type id = Ode_storage.Rid.t
(** A [TriggerId] (§4.1): the persistent pointer to a [TriggerState],
    returned by activation and accepted by [deactivate]. *)

val encode : t -> bytes
val encode_phoenix : phoenix_entry -> bytes
val decode : bytes -> any
(** Raises {!Ode_util.Binc.Corrupt} on malformed input. *)

(** What the activation index keeps of a state record: all but [args]. *)
type index_view = {
  iv_triggernum : int;
  iv_trigobj : Ode_objstore.Oid.t;
  iv_trigobjtype : string;
  iv_statenum : int;
  iv_anchors : Ode_objstore.Oid.t list;
}

val decode_index : bytes -> index_view option
(** Reads a state record's index fields and skips its args without
    building them; [None] for a phoenix entry, which is not read further.
    Raises {!Ode_util.Binc.Corrupt} on a bad tag or a truncated state. *)

val with_statenum : t -> int -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
