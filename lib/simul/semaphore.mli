(** Counting semaphore with FIFO wakeup, for simulated processes.

    Used to model local critical sections (e.g. a node's local serialization
    of subtransactions) without ever blocking on remote activity. *)

type t

(** [create n] is a semaphore with [n] initial permits. *)
val create : int -> t

(** [acquire sim s] takes one permit, suspending while none are available. *)
val acquire : Sim.t -> t -> unit

(** [release s] returns one permit, waking the oldest waiter if any. *)
val release : t -> unit

(** [with_permit sim s f] runs [f ()] holding a permit, releasing it even if
    [f] raises. *)
val with_permit : Sim.t -> t -> (unit -> 'a) -> 'a


(** Number of processes blocked in {!acquire}. *)
val waiting : t -> int
