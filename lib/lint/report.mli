(** Lint findings and the two report renderings (human and [lint/v2] JSON).

    A {!finding} is one diagnostic anchored at a source position; a {!t}
    aggregates the findings of a whole run together with the waiver and
    allowlist accounting. The JSON side uses the minimal value type,
    printer and parser of {!Json}, so the report both round-trips
    ({!of_json}) and can serve as the ratchet baseline ({!diff}) without
    external dependencies. *)

type finding = {
  file : string;  (** repo-relative path, ['/']-separated *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, as in compiler diagnostics *)
  rule : string;  (** rule id, e.g. ["R2"], or ["syntax"] *)
  msg : string;
}

type t = {
  findings : finding list;  (** sorted by (file, line, col, rule, msg) *)
  files_scanned : int;
  waived : int;  (** findings suppressed by an inline [(* lint: ... *)] *)
  allowlisted : int;  (** findings suppressed by a [lint.config] allow *)
}

(** The schema tag {!to_json} stamps on every report: ["lint/v2"]. *)
val schema_version : string

(** The rule ids every report carries counts for, in catalog order. *)
val rule_ids : string list

(** Total order on findings: file, line, column, rule, then message. *)
val compare_finding : finding -> finding -> int

(** Build a report; findings are sorted into the canonical order. *)
val make :
  findings:finding list ->
  files_scanned:int ->
  waived:int ->
  allowlisted:int ->
  t

(** Number of (non-suppressed) findings. *)
val total : t -> int

(** Per-rule finding counts. Every id in {!rule_ids} is present (possibly
    0), plus any id that appears in the findings; the counts sum to
    {!total}. *)
val counts : t -> (string * int) list

(** [file:line:col rule-id message] — one line, no trailing newline. *)
val pp_finding : Format.formatter -> finding -> unit

(** All findings, one per line, followed by a summary line. *)
val render_human : Format.formatter -> t -> unit

(** The {!schema_version} JSON document for [t]. *)
val to_json : t -> string

(** Parse a report document back into a {!t}. Accepts the current
    ["lint/v2"] schema and the legacy ["lint/v1"] (same field layout);
    derived fields ([total], [counts]) are recomputed, not trusted.
    @raise Json.Parse_error on malformed JSON or a report of the wrong
    shape. *)
val of_json : string -> t

(** [diff ~baseline current] is the ratchet: the findings of [current]
    with no unconsumed counterpart in [baseline], matching per occurrence
    on [(file, rule, msg)]. Lines are not part of the key, so pure line
    drift (an edit above an old finding) never makes it "new". *)
val diff : baseline:finding list -> finding list -> finding list
