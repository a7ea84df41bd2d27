type phase = Switch_update | Quiesce_update | Switch_read | Retire_read

let phase_number = function
  | Switch_update -> 1
  | Quiesce_update -> 2
  | Switch_read -> 3
  | Retire_read -> 4

let phase_name = function
  | Switch_update -> "switch-update"
  | Quiesce_update -> "quiesce-update"
  | Switch_read -> "switch-read"
  | Retire_read -> "retire-read"

type record =
  | Started of { epoch : int; time : float }
  | Phase of { adv : int; phase : phase; vu_old : int; vr_old : int; time : float }
  | Committed of { adv : int; time : float }

type t = { mutable records : record list (* newest first *); mutable count : int }

let create () = { records = []; count = 0 }

let append t r =
  t.records <- r :: t.records;
  t.count <- t.count + 1

let records t = List.rev t.records
let length t = t.count

type in_flight = { f_adv : int; f_phase : phase; f_vu_old : int; f_vr_old : int }

type recovery = {
  next_epoch : int;
  completed : int;
  vu : int;
  vr : int;
  in_flight : in_flight option;
}

let recover t ~init_vu ~init_vr =
  (* Fold oldest-first: a [Committed] for advancement [adv] supersedes any
     [Phase] record of the same advancement; the most recent unsuperseded
     [Phase] is the in-flight advancement to resume. *)
  let max_epoch = ref 0 and completed = ref 0 in
  let in_flight = ref None in
  List.iter
    (fun r ->
      match r with
      | Started { epoch; _ } -> if epoch > !max_epoch then max_epoch := epoch
      | Phase { adv; phase; vu_old; vr_old; _ } ->
          in_flight :=
            Some { f_adv = adv; f_phase = phase; f_vu_old = vu_old; f_vr_old = vr_old }
      | Committed { adv; _ } ->
          if adv > !completed then completed := adv;
          (match !in_flight with
          | Some f when f.f_adv = adv -> in_flight := None
          | _ -> ()))
    (records t);
  {
    next_epoch = !max_epoch + 1;
    completed = !completed;
    vu = init_vu + !completed;
    vr = init_vr + !completed;
    in_flight = !in_flight;
  }

let phase_times t =
  List.filter_map
    (function
      | Phase { adv; phase; time; _ } -> Some (adv, phase, time)
      | Started _ | Committed _ -> None)
    (records t)

let pp_record ppf = function
  | Started { epoch; time } ->
      Format.fprintf ppf "started epoch=%d t=%g" epoch time
  | Phase { adv; phase; vu_old; vr_old; time } ->
      Format.fprintf ppf "phase adv=%d %s vu_old=%d vr_old=%d t=%g" adv
        (phase_name phase) vu_old vr_old time
  | Committed { adv; time } -> Format.fprintf ppf "committed adv=%d t=%g" adv time

let pp ppf t =
  Format.fprintf ppf "@[<v>coord log (%d records)" t.count;
  List.iter (fun r -> Format.fprintf ppf "@,%a" pp_record r) (records t);
  Format.fprintf ppf "@]"
