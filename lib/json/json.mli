(** Minimal JSON values, printer and parser — shared by the lint report
    ([lint/v2]) and the bench's reader of its trajectory files
    ([BENCH_*.json]), with no external dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int  (** a literal of digits and an optional sign *)
  | Float of float  (** any other number literal *)
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Serialize (no insignificant whitespace). *)
val to_string : t -> string

exception Parse_error of string

(** Parse one JSON document.
    @raise Parse_error on malformed input. *)
val of_string : string -> t

(** [member k j] is field [k] of [j], if [j] is an object that has one. *)
val member : string -> t -> t option
