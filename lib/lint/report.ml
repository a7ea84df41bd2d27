type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  msg : string;
}

type t = {
  findings : finding list;
  files_scanned : int;
  waived : int;
  allowlisted : int;
}

let schema_version = "lint/v2"

let rule_ids =
  [ "R1"; "R2"; "R3"; "R4"; "R5"; "R6"; "R7"; "R8"; "R9"; "R10"; "syntax" ]

let compare_finding a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = compare a.line b.line in
    if c <> 0 then c
    else
      let c = compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.msg b.msg

let make ~findings ~files_scanned ~waived ~allowlisted =
  { findings = List.sort compare_finding findings; files_scanned; waived;
    allowlisted }

let total t = List.length t.findings

let counts t =
  let count r = List.length (List.filter (fun f -> f.rule = r) t.findings) in
  let named = List.map (fun r -> (r, count r)) rule_ids in
  (* Any finding carrying a rule id outside the catalog still must be
     counted, or the per-rule counts would not sum to [total]. *)
  let extra =
    List.filter (fun f -> not (List.mem f.rule rule_ids)) t.findings
  in
  let extra_ids = List.sort_uniq String.compare (List.map (fun f -> f.rule) extra) in
  named @ List.map (fun r -> (r, count r)) extra_ids

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d:%d %s %s" f.file f.line f.col f.rule f.msg

let render_human ppf t =
  List.iter (fun f -> Format.fprintf ppf "%a@." pp_finding f) t.findings;
  Format.fprintf ppf
    "lint: %d finding%s in %d files (%d waived, %d allowlisted)@." (total t)
    (if total t = 1 then "" else "s")
    t.files_scanned t.waived t.allowlisted

(* ----------------------------------------------------------------- JSON *)

open Json

let to_json t =
  let finding_obj f =
    Obj
      [
        ("file", String f.file);
        ("line", Int f.line);
        ("col", Int f.col);
        ("rule", String f.rule);
        ("msg", String f.msg);
      ]
  in
  Json.to_string
    (Obj
       [
         ("schema", String schema_version);
         ("files_scanned", Int t.files_scanned);
         ("total", Int (total t));
         ("waived", Int t.waived);
         ("allowlisted", Int t.allowlisted);
         ("counts", Obj (List.map (fun (r, n) -> (r, Int n)) (counts t)));
         ("findings", List (List.map finding_obj t.findings));
       ])

(* Reading a report back. Shape errors reuse [Parse_error] so callers have
   one failure mode for "this is not a lint report". The [total]/[counts]
   fields are derived data and are recomputed by [make], not trusted. *)

let field k j =
  match Json.member k j with
  | Some v -> v
  | None -> raise (Parse_error (Printf.sprintf "missing field %S" k))

let as_int k = function
  | Int i -> i
  | _ -> raise (Parse_error (Printf.sprintf "field %S: expected an int" k))

let as_string k = function
  | String s -> s
  | _ -> raise (Parse_error (Printf.sprintf "field %S: expected a string" k))

let finding_of_json j =
  {
    file = as_string "file" (field "file" j);
    line = as_int "line" (field "line" j);
    col = as_int "col" (field "col" j);
    rule = as_string "rule" (field "rule" j);
    msg = as_string "msg" (field "msg" j);
  }

let of_json s =
  let j = Json.of_string s in
  (match field "schema" j with
  | String ("lint/v1" | "lint/v2") -> ()
  | String other ->
      raise (Parse_error (Printf.sprintf "unknown report schema %S" other))
  | _ -> raise (Parse_error "field \"schema\": expected a string"));
  let findings =
    match field "findings" j with
    | List l -> List.map finding_of_json l
    | _ -> raise (Parse_error "field \"findings\": expected a list")
  in
  make ~findings
    ~files_scanned:(as_int "files_scanned" (field "files_scanned" j))
    ~waived:(as_int "waived" (field "waived" j))
    ~allowlisted:(as_int "allowlisted" (field "allowlisted" j))

(* ------------------------------------------------------------- baseline *)

(* The ratchet: a finding is "new" when the baseline holds no unconsumed
   finding with the same (file, rule, msg). Lines are deliberately not part
   of the key — editing an unrelated part of a file shifts every finding
   below the edit, and the gate must not fire on pure line drift. Matching
   is per-occurrence (a multiset), so adding a second copy of a baselined
   finding still counts as new. *)
let diff ~baseline current =
  let key (f : finding) = (f.file, f.rule, f.msg) in
  let remaining = Hashtbl.create 64 in
  List.iter
    (fun f ->
      let k = key f in
      let n = match Hashtbl.find_opt remaining k with Some n -> n | None -> 0 in
      Hashtbl.replace remaining k (n + 1))
    baseline;
  List.filter
    (fun f ->
      let k = key f in
      match Hashtbl.find_opt remaining k with
      | Some n when n > 0 ->
          Hashtbl.replace remaining k (n - 1);
          false
      | _ -> true)
    current
