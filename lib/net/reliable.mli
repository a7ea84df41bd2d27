(** At-least-once + idempotent delivery on top of {!Network} — the classic
    reliable-channel construction: per-link sequence numbers, receiver-side
    dedup, acknowledgements, and timeout-driven retransmission with
    exponential backoff.

    A channel wraps a network whose message type is ['m packet]. With
    [config.acks = false] (the default) it degenerates to raw sends: one
    packet per send, no acks, no sequence allocation, no timers — byte-
    identical scheduling to using the network directly, which is what keeps
    existing deterministic tests and model-checking scenarios unperturbed.
    With [acks = true]:

    - every send allocates the next sequence number of its (src, dst) link
      and is acknowledged by the receiver on arrival;
    - the receiver drops packets whose (src, seq) it has already delivered
      (the durable-inbox idempotency pattern), so retransmissions and
      network-duplicated copies are invisible to the application;
    - with [retransmit = true] an unacknowledged packet is re-sent after
      [timeout], then [timeout * backoff], ... capped at [max_backoff].

    Retransmissions go through the network's fault filter like any other
    send, so a retransmitted copy can itself be dropped — delivery is
    guaranteed only if the link eventually passes a copy, which is exactly
    the at-least-once contract. *)

(** Wire format. [Ack {src; seq}] acknowledges the data packet [seq] sent
    {e to} [src] by the ack's receiver. *)
type 'm packet = Data of { src : int; seq : int; body : 'm } | Ack of { src : int; seq : int }

type config = {
  acks : bool;  (** enable sequence numbers, acks and dedup *)
  retransmit : bool;  (** re-send unacknowledged packets (requires [acks]) *)
  timeout : float;  (** first retransmission delay, virtual seconds *)
  backoff : float;  (** multiplier applied per retry (≥ 1) *)
  max_backoff : float;  (** retry-delay cap, virtual seconds *)
}

(** [{acks = false; retransmit = true; timeout = 0.05; backoff = 2.0;
    max_backoff = 1.0}] — raw sends until a caller opts in. *)
val default_config : config

type 'm t

(** [create ?config net] wraps [net]. The channel shares the network's
    simulation for its retransmission timers. *)
val create : ?config:config -> 'm packet Network.t -> 'm t

(** The configuration the channel was created with. *)
val config : 'm t -> config

(** The wrapped network. *)
val network : 'm t -> 'm packet Network.t

(** [send t ~src ~dst body] — never blocks. *)
val send : 'm t -> src:int -> dst:int -> 'm -> unit

(** [recv t ~node] suspends until the next {e new} application message for
    [node] arrives; acks and duplicate data packets are consumed
    internally. *)
val recv : 'm t -> node:int -> 'm

(** Retransmitted data packets so far. *)
val retransmissions : 'm t -> int

(** Duplicate data packets suppressed by receiver-side dedup. *)
val dup_dropped : 'm t -> int

(** Acknowledgement packets sent. *)
val acks_sent : 'm t -> int

(** Unacknowledged data packets addressed to [dst] — the catch-up backlog a
    crashed node is still owed. A recovering replica is fully caught up
    once this drains to 0 (every retransmitted message it slept through has
    landed and been acknowledged). *)
val unacked_to : 'm t -> dst:int -> int

(** [ack_floor t ~src ~dst] is the highest sequence on the [src → dst]
    stream with every sequence at or below it acknowledged (0 initially).
    As the floor advances, the channel prunes the network's per-(src, seq,
    dst) delivery-dedup records behind it ({!Network.forget_delivered}),
    which is what keeps that table bounded by the in-flight window on long
    retransmit-heavy runs. *)
val ack_floor : 'm t -> src:int -> dst:int -> int
