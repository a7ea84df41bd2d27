(** Interprets a {!Plan} against a running simulation.

    The injector plugs into a {!Netsim.Network} as its per-delivery filter
    (see {!Netsim.Network.set_filter}): for every send it maps the sampled
    base delay to the list of delivery delays after faults — [[]] for a
    dropped message, two entries for a duplicate. Crash windows drop all
    traffic from a crashed sender and all copies that would arrive while
    the destination is down.

    Node-level events (pause, crash, restart) are delivered through hooks
    the owning engine registers with {!set_node_hooks}: the injector owns
    the {e schedule} (when things happen), the engine owns the {e effect}
    (freezing its inbox, wiping volatile state, recovering). Both engines
    in this repository route their [inject_pause] through here.

    Determinism: probabilistic decisions come from a dedicated
    [Random.State] seeded by the plan, so the workload's RNG stream is
    untouched. The empty plan makes no RNG draws at all and passes every
    delivery through unchanged — installing it is a no-op.

    Coordinator crashes are a separate event class: the plan does not know
    the coordinator's network id, so the owning engine registers it with
    {!set_coord}; during a coordinator crash window all traffic to and from
    that id is dropped, and the [crash]/[restart] hooks let the engine wipe
    volatile phase state and re-drive the advancement from its write-ahead
    log.

    Accounting is surfaced as a {!Stats.Counter_set}: aggregate
    ["fault.drops"], ["fault.dups"], ["fault.delays"], ["fault.crash_drops"]
    plus per-link variants such as ["fault.drop[0->2]"], and event counts
    ["fault.pauses"] / ["fault.crashes"] / ["fault.restarts"] /
    ["fault.coord_crashes"] / ["fault.coord_restarts"]. *)

type t

(** [create sim plan] builds an injector and schedules the plan's pauses
    and crashes on [sim]. Register hooks before running the simulation. *)
val create : Simul.Sim.t -> Plan.t -> t

(** The plan the injector was created with. *)
val plan : t -> Plan.t

(** The per-delivery filter for protocol traffic (what {!install} plugs
    into the network). Skips heartbeat-only rules without consuming a
    random draw or an [nth] hit, so a purely heartbeat-scoped plan leaves
    protocol schedules byte-identical to the fault-free run. *)
val filter : t -> src:int -> dst:int -> delay:float -> float list

(** [install t net] sets [t]'s protocol filter on [net]. *)
val install : t -> 'm Netsim.Network.t -> unit

(** [install_hb t net] sets [t]'s heartbeat-class filter on [net]
    (intended for {!Netsim.Heartbeat.network}). It applies {e every} rule —
    heartbeat-only ones and general ones, so a partition cuts heartbeats
    too — plus the crash windows, with heartbeat-class [nth] hit counters
    of its own. Accounting lands under ["fault.hb_*"]. *)
val install_hb : t -> 'm Netsim.Network.t -> unit

(** Register the engine-side effects of node events. Hooks not provided
    keep their previous value (initially no-ops). [pause] receives the
    freeze horizon [until_] already computed at fire time; [crash] fires
    when the node goes down, [restart] when it comes back. *)
val set_node_hooks :
  t ->
  ?pause:(node:int -> duration:float -> until_:float -> unit) ->
  ?crash:(node:int -> unit) ->
  ?restart:(node:int -> unit) ->
  unit ->
  unit

(** [pause t ~node ~at ~duration] schedules a pause event (in addition to
    any in the plan). *)
val pause : t -> node:int -> at:float -> duration:float -> unit

(** [crash t ~node ~at ~restart] schedules a crash-restart (in addition to
    any in the plan).
    @raise Invalid_argument if [restart <= at]. *)
val crash : t -> node:int -> at:float -> restart:float -> unit

(** [set_coord t ~id ?crash ?restart ()] registers the coordinator's
    network id (so crash windows drop its traffic) and the engine-side
    effects of a coordinator crash: [crash ~until_] fires when it goes
    down (with the restart time), [restart] when it comes back. Hooks not
    provided keep their previous value (initially no-ops). *)
val set_coord :
  t ->
  id:int ->
  ?crash:(until_:float -> unit) ->
  ?restart:(unit -> unit) ->
  unit ->
  unit

(** [coord_crash t ~at ~restart] schedules a coordinator crash-restart (in
    addition to any in the plan).
    @raise Invalid_argument if [restart <= at]. *)
val coord_crash : t -> at:float -> restart:float -> unit

(** Is [node] inside a crash window at virtual time [at]? Includes
    coordinator windows when [node] is the registered coordinator id. *)
val down : t -> node:int -> at:float -> bool

(** Is the coordinator inside a crash window at virtual time [at]? *)
val coord_down : t -> at:float -> bool

(** Live accounting snapshot (shared, monotone — do not mutate). *)
val stats : t -> Stats.Counter_set.t
