(** The coordinator's durable write-ahead log.

    Version advancement is a four-phase protocol driven by a single
    coordinator; a fail-stop crash mid-advancement would otherwise wedge
    the system at an ever-staler version pair. The coordinator therefore
    logs, {e before} acting on it, every phase transition of every
    advancement: [(advancement_no, phase, vu_old, vr_old)]. On restart,
    {!recover} replays the log and tells the coordinator which advancement
    (if any) is in flight and at which phase to resume it.

    The log models a durable store in the simulated world: it survives
    coordinator crash windows (only volatile phase progress is lost),
    exactly like a node's {!Mvstore} survives node crashes. Appends are
    pure in-memory operations, so logging never perturbs the simulation
    schedule.

    Recovery is sound because every phase is idempotent on the node side
    (re-received [Start_advancement]/[Advance_read]/[Do_gc] re-ack without
    side effects, counter polls are namespaced by epoch), so re-driving a
    phase that had partially — or even fully — completed is safe. *)

(** The four phases of one advancement, in protocol order. *)
type phase =
  | Switch_update  (** phase 1: nodes adopt the new update version *)
  | Quiesce_update  (** phase 2: wait for [vu_old] writers to drain *)
  | Switch_read  (** phase 3: nodes adopt the new read version *)
  | Retire_read  (** phase 4: wait for [vr_old] readers, then GC it *)

val phase_number : phase -> int  (** 1..4 *)

type record =
  | Started of { epoch : int; time : float }
      (** a coordinator (re)start: epoch 0 at boot, incremented on each
          recovery. Epochs namespace counter-poll rounds on the wire. *)
  | Phase of { adv : int; phase : phase; vu_old : int; vr_old : int; time : float }
      (** advancement [adv] is entering [phase], retiring the given old
          version pair. Logged before the phase's first message is sent. *)
  | Committed of { adv : int; time : float }
      (** advancement [adv] finished phase 4; its [Phase] records are now
          superseded. *)

type t

(** An empty log. *)
val create : unit -> t

(** [append t r] durably appends one record. O(1). *)
val append : t -> record -> unit

(** Oldest first. *)
val records : t -> record list

(** Number of records logged. *)
val length : t -> int

(** The advancement to resume, if recovery finds one in flight. *)
type in_flight = { f_adv : int; f_phase : phase; f_vu_old : int; f_vr_old : int }

type recovery = {
  next_epoch : int;  (** strictly greater than every logged epoch *)
  completed : int;  (** highest committed advancement number (0 if none) *)
  vu : int;  (** update version implied by [completed] advancements *)
  vr : int;  (** read version implied by [completed] advancements *)
  in_flight : in_flight option;
      (** the latest [Phase] record not superseded by a [Committed] *)
}

(** [recover t ~init_vu ~init_vr] replays the log. [init_vu]/[init_vr] are
    the system's boot-time version pair; each committed advancement bumps
    both by one. *)
val recover : t -> init_vu:int -> init_vr:int -> recovery

(** All [(adv, phase, entry_time)] transitions, oldest first — lets tests
    aim crash injections at specific phase interiors of a reference run. *)
val phase_times : t -> (int * phase * float) list

(** One line per record, oldest first. *)
val pp : Format.formatter -> t -> unit
