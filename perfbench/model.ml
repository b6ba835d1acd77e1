(* The benchmark's own picture of the table, and the checks that compare
   the engine against it.

   The model is a map from RID to record. It holds every row the benchmark
   loaded and every write whose [Engine.run_txn] returned [Ok]; nothing in
   it is read back from the engine. Commit and the model update happen
   with no scheduler yield in between, so at every yield point the model
   is exactly the set of acknowledged commits. *)

open Oib_util

exception
  Check_failed of { workload : string; check : string; detail : string }

let fail ~workload ~check fmt =
  Printf.ksprintf
    (fun detail -> raise (Check_failed { workload; check; detail }))
    fmt

(* The indexed column. A one-column key value is the column itself. *)
let value (r : Record.t) = r.Record.cols.(0)

let show_rid (r : Rid.t) = Printf.sprintf "(%d,%d)" r.Rid.page r.Rid.slot
let show_record (r : Record.t) = String.concat "|" (Array.to_list r.Record.cols)

(* Index entry order, written out here rather than taken from [Ikey]:
   key value, then page, then slot. *)
let compare_entry (v1, (r1 : Rid.t)) (v2, (r2 : Rid.t)) =
  match String.compare v1 v2 with
  | 0 -> (
    match Int.compare r1.Rid.page r2.Rid.page with
    | 0 -> Int.compare r1.Rid.slot r2.Rid.slot
    | c -> c)
  | c -> c

(* A set of RIDs with O(1) add and uniform pick. *)
module Rid_set = struct
  type t = {
    mutable items : Rid.t array;
    mutable n : int;
    pos : (Rid.t, int) Hashtbl.t;
  }

  let create () = { items = [||]; n = 0; pos = Hashtbl.create 1024 }

  let add t rid =
    if not (Hashtbl.mem t.pos rid) then begin
      if t.n = Array.length t.items then begin
        let b = Array.make (max 64 (2 * t.n)) rid in
        Array.blit t.items 0 b 0 t.n;
        t.items <- b
      end;
      t.items.(t.n) <- rid;
      Hashtbl.replace t.pos rid t.n;
      t.n <- t.n + 1
    end

  let remove t rid =
    match Hashtbl.find_opt t.pos rid with
    | None -> ()
    | Some i ->
      let last = t.items.(t.n - 1) in
      t.items.(i) <- last;
      Hashtbl.replace t.pos last i;
      Hashtbl.remove t.pos rid;
      t.n <- t.n - 1

  let pick t rng = t.items.(Rng.int rng t.n)
end

type t = {
  recs : (Rid.t, Record.t) Hashtbl.t;
  all : Rid_set.t;  (** every committed record: reads pick here *)
  owned : Rid_set.t array;  (** per client: the records it may write *)
}

let create ~clients =
  { recs = Hashtbl.create 4096; all = Rid_set.create ();
    owned = Array.init clients (fun _ -> Rid_set.create ()) }

let size m = Hashtbl.length m.recs
let find m rid = Hashtbl.find_opt m.recs rid

let insert m ~owner rid r =
  Hashtbl.replace m.recs rid r;
  Rid_set.add m.all rid;
  Rid_set.add m.owned.(owner) rid

let remove m rid =
  Hashtbl.remove m.recs rid;
  Rid_set.remove m.all rid;
  Array.iter (fun s -> Rid_set.remove s rid) m.owned

(* Model records in RID order (deterministic iteration). *)
let sorted m =
  Hashtbl.fold (fun rid r acc -> (rid, r) :: acc) m.recs []
  |> List.sort (fun (a, _) (b, _) -> Rid.compare a b)

(* --- checks --- *)

(* The heap must hold exactly the model's records. *)
let check_heap ~workload ~check m heap =
  let seen = Hashtbl.create (Hashtbl.length m.recs) in
  List.iter
    (fun (rid, r) ->
      if Hashtbl.mem seen rid then
        fail ~workload ~check "rid %s appears twice in the heap" (show_rid rid);
      Hashtbl.replace seen rid ();
      match find m rid with
      | None ->
        fail ~workload ~check "rid %s holds %s in the heap, absent from the model"
          (show_rid rid) (show_record r)
      | Some want when not (Record.equal want r) ->
        fail ~workload ~check "rid %s holds %s in the heap, the model holds %s"
          (show_rid rid) (show_record r) (show_record want)
      | Some _ -> ())
    heap;
  List.iter
    (fun (rid, r) ->
      if not (Hashtbl.mem seen rid) then
        fail ~workload ~check "rid %s is missing from the heap, the model holds %s"
          (show_rid rid) (show_record r))
    (sorted m)

(* [entries] is the index's left-to-right scan as (value, rid, pseudo).
   It must be strictly ascending, and its Present entries must be exactly
   one per model record, keyed by the record's indexed value and RID. *)
let check_index ~workload ~check m entries =
  let rec ascending = function
    | (v1, r1, _) :: ((v2, r2, _) :: _ as rest) ->
      if compare_entry (v1, r1) (v2, r2) >= 0 then
        fail ~workload ~check "index entry <%s,%s> is not above <%s,%s>" v2
          (show_rid r2) v1 (show_rid r1);
      ascending rest
    | [ _ ] | [] -> ()
  in
  ascending entries;
  let present =
    List.filter_map (fun (v, r, pseudo) -> if pseudo then None else Some (v, r))
      entries
  in
  let expected =
    Hashtbl.fold (fun rid r acc -> (value r, rid) :: acc) m.recs []
    |> List.sort compare_entry
  in
  let rec walk got want =
    match (got, want) with
    | [], [] -> ()
    | (v, r) :: _, [] ->
      fail ~workload ~check "index holds <%s,%s>, which no model record matches" v
        (show_rid r)
    | [], (v, r) :: _ ->
      fail ~workload ~check "index lacks <%s,%s> for model record rid %s" v
        (show_rid r) (show_rid r)
    | g :: gs, w :: ws -> (
      match compare_entry g w with
      | 0 -> walk gs ws
      | c when c < 0 ->
        let v, r = g in
        fail ~workload ~check
          "index holds <%s,%s>, which no model record matches (rid %s holds %s)"
          v (show_rid r) (show_rid r)
          (match find m r with Some x -> show_record x | None -> "nothing")
      | _ ->
        let v, r = w in
        fail ~workload ~check "index lacks <%s,%s> for model record rid %s" v
          (show_rid r) (show_rid r))
  in
  walk present expected

(* One point-lookup result, checked for what holds under concurrency: each
   record holds the looked-up value, no RID twice, and (since the lookup
   read each record under an S lock held to its commit) each record is the
   model's current one. *)
let check_point ~workload m v results =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (rid, r) ->
      if Hashtbl.mem seen rid then
        fail ~workload ~check:"point-lookup" "lookup %s returned rid %s twice" v
          (show_rid rid);
      Hashtbl.replace seen rid ();
      if not (String.equal (value r) v) then
        fail ~workload ~check:"point-lookup" "lookup %s returned rid %s holding %s"
          v (show_rid rid) (show_record r);
      match find m rid with
      | Some want when Record.equal want r -> ()
      | got ->
        fail ~workload ~check:"point-lookup"
          "lookup %s returned rid %s as %s, the model holds %s" v (show_rid rid)
          (show_record r)
          (match got with Some x -> show_record x | None -> "nothing"))
    results

(* One range-lookup result: within [lo, hi], in key order, no RID twice,
   each record the model's current one. *)
let check_range ~workload m ~lo ~hi results =
  let check = "range-lookup" in
  let seen = Hashtbl.create 16 in
  let prev = ref None in
  List.iter
    (fun (rid, r) ->
      let v = value r in
      if Hashtbl.mem seen rid then
        fail ~workload ~check "range [%s,%s] returned rid %s twice" lo hi
          (show_rid rid);
      Hashtbl.replace seen rid ();
      if String.compare v lo < 0 || String.compare v hi > 0 then
        fail ~workload ~check "range [%s,%s] returned rid %s holding %s" lo hi
          (show_rid rid) (show_record r);
      (match !prev with
      | Some p when compare_entry p (v, rid) >= 0 ->
        fail ~workload ~check "range [%s,%s] returned rid %s out of key order" lo
          hi (show_rid rid)
      | _ -> ());
      prev := Some (v, rid);
      match find m rid with
      | Some want when Record.equal want r -> ()
      | got ->
        fail ~workload ~check "range [%s,%s] returned rid %s as %s, the model \
                               holds %s" lo hi (show_rid rid) (show_record r)
          (match got with Some x -> show_record x | None -> "nothing"))
    results

(* Model records in key order, for exact answers to quiescent lookups. *)
let key_ordered m =
  Hashtbl.fold (fun rid r acc -> (rid, r) :: acc) m.recs []
  |> List.sort (fun (r1, a) (r2, b) -> compare_entry (value a, r1) (value b, r2))
  |> Array.of_list

(* The records of [ordered] whose value is in [lo, hi], in key order. *)
let expected_range ordered ~lo ~hi =
  let n = Array.length ordered in
  (* first position whose value is >= lo *)
  let rec search a b =
    if a >= b then a
    else
      let mid = (a + b) / 2 in
      if String.compare (value (snd ordered.(mid))) lo < 0 then search (mid + 1) b
      else search a mid
  in
  let rec collect i acc =
    if i < n && String.compare (value (snd ordered.(i))) hi <= 0 then
      collect (i + 1) (ordered.(i) :: acc)
    else List.rev acc
  in
  collect (search 0 n) []

let check_exact ~workload ~check ~what want got =
  let rec walk want got =
    match (want, got) with
    | [], [] -> ()
    | (rid, r) :: _, [] ->
      fail ~workload ~check "%s lacks rid %s holding %s" what (show_rid rid)
        (show_record r)
    | [], (rid, r) :: _ ->
      fail ~workload ~check "%s returned rid %s holding %s, not in the model"
        what (show_rid rid) (show_record r)
    | (wr, w) :: ws, (gr, g) :: gs ->
      if Rid.equal wr gr && Record.equal w g then walk ws gs
      else
        fail ~workload ~check "%s returned rid %s holding %s, the model has rid \
                               %s holding %s" what (show_rid gr) (show_record g)
          (show_rid wr) (show_record w)
  in
  walk want got
