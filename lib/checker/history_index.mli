(** Dense integer index of a finished history, shared by the checkers.

    Transactions get slots [0 .. size - 1] in ascending id order, so slot
    order is id order. Keys are interned to dense ids. Every key's
    effect-ful writers sit in one slot-ascending array, and every committed
    transaction's read observations in one flat array. Both are built once,
    up front. A checker pass then walks an observation's ascending writer
    tags against the key's ascending writers ({!merge}) with per-slot stamp
    arrays of its own, and allocates nothing per edge or per tag.

    Transaction ids must be unique within a history: every engine assigns
    them so, and the checkers' per-slot stamps rely on it. *)

(** [has_effect res] — the transaction committed, or aborted through
    compensation. Compensation leaves its writer tags on every key it
    touched, with a net-zero amount, so readers may observe it and it stays
    atomic from a reader's view. *)
val has_effect : Txn.Result.t -> bool

(** Growable int buffer, for checker-side edge and candidate lists. *)
module Ibuf : sig
  type t

  (** An empty buffer with room for [capacity] (default 64) elements. *)
  val create : ?capacity:int -> unit -> t

  (** Number of elements pushed since the last {!clear}. *)
  val length : t -> int

  (** [get b i] — the [i]-th element pushed. *)
  val get : t -> int -> int

  (** Appends one element, growing the storage geometrically. *)
  val push : t -> int -> unit

  (** Forgets every element; keeps the storage. *)
  val clear : t -> unit

  (** [iter f b] applies [f] to the elements in push order. *)
  val iter : (int -> unit) -> t -> unit
end

type t

(** [build history] indexes every (spec, result) entry.
    @raise Invalid_argument if two entries share a transaction id. *)
val build : (Txn.Spec.t * Txn.Result.t) list -> t

(** Number of slots (history entries). *)
val size : t -> int

(** Transaction id of a slot; ascending in the slot. *)
val id : t -> int -> int

(** The spec of a slot. *)
val spec : t -> int -> Txn.Spec.t

(** The result of a slot. *)
val result : t -> int -> Txn.Result.t

(** [slot_of_id ix id] — the slot of transaction [id], or [-1] if the
    history has no such transaction. Binary search. *)
val slot_of_id : t -> int -> int

(** [is_writer ix s] — slot [s] is an effect-ful update: not read-only,
    and {!has_effect}. *)
val is_writer : t -> int -> bool

(** [iter_history ix f] calls [f slot] for every entry, in the order the
    history listed them. *)
val iter_history : t -> (int -> unit) -> unit

(** The key's text. *)
val key_name : t -> int -> string

(** [key_id ix key] — the interned id of [key]. [key] must have been
    written by an effect-ful update or read by a committed transaction. *)
val key_id : t -> string -> int

(** [iter_writers ix k f] calls [f slot] for each effect-ful writer of key
    [k], in ascending slot (= id) order. *)
val iter_writers : t -> int -> (int -> unit) -> unit

(** [writes ix s k] — slot [s] is an effect-ful writer of key [k]. Binary
    search. *)
val writes : t -> int -> int -> bool

(** The sum, over every indexed read observation, of its key's effect-ful
    writer count: the number of [hit] plus [miss] calls {!merge} makes
    across all observations. It bounds the reads-from and anti-dependency
    edges a checker can draw from them, bar strays. *)
val merged_writers : t -> int

(** [iter_reads ix s f] calls [f key value] for each read observation of
    committed slot [s], in the result's read order. Uncommitted slots have
    no indexed reads. *)
val iter_reads : t -> int -> (int -> Txn.Value.t -> unit) -> unit

(** [iter_observed ix s f] calls [f key tags] once per distinct key slot
    [s] read, in first-read order, with [tags] the union of the writer tags
    of every observation of that key. Not reentrant: [f] must not call
    [iter_observed] on the same index. *)
val iter_observed : t -> int -> (int -> Txn.Value.Writers.t -> unit) -> unit

(** [merge ix k tags ~hit ~miss ~stray] walks the ascending [tags] of one
    observation of key [k] against [k]'s ascending effect-ful writers in
    one pass: [hit w] for each writer slot whose tag is present, [miss w]
    for each writer slot whose tag is absent, and [stray t] for each tag
    that no effect-ful writer of [k] accounts for. [stray] is called in
    ascending tag order. Cost O(|tags| + writers of [k]). *)
val merge :
  t ->
  int ->
  Txn.Value.Writers.t ->
  hit:(int -> unit) ->
  miss:(int -> unit) ->
  stray:(int -> unit) ->
  unit
