(* The three workloads, run through the engine's public API.

   One round = set-up (create, load, checkpoint; for index_oltp also the
   index build) + the measured phase + a restart + the checks, all on
   inputs generated from one seed. A round is deterministic: the same seed
   gives the same counts (transactions per class, steps, log bytes, page
   writes, B-tree counts). *)

open Oib_util
open Oib_core
module Sched = Oib_sim.Sched
module Metrics = Oib_sim.Metrics
module BS = Build_status
module LM = Oib_wal.Log_manager
module Heap_file = Oib_storage.Heap_file
module Btree = Oib_btree.Btree

type workload = Sf_build | Nsf_crash_resume | Index_oltp

let workloads = [ Sf_build; Nsf_crash_resume; Index_oltp ]

let workload_name = function
  | Sf_build -> "sf_build"
  | Nsf_crash_resume -> "nsf_crash_resume"
  | Index_oltp -> "index_oltp"

type size = { rows : int; clients : int; oltp_txns : int }

let full = { rows = 40_000; clients = 4; oltp_txns = 80_000 }
let tiny = { rows = 3_000; clients = 4; oltp_txns = 3_000 }

(* Planted faults for the self-test: each corrupts the model, never the
   engine, so a check that still passes is vacuous. *)
type plant = No_plant | Drop_record | Change_value | Keep_inflight

exception Over_budget of string
exception Rollback_requested

let table = 1
let index_id = 10
let spec = { Ib.index_id; key_cols = [ 0 ]; unique = false }

(* ---------- operation classes and their accounting ---------- *)

type cls = Update | Insert | Delete | Rollback | Read | Point | Range

let classes = [ Update; Insert; Delete; Rollback; Read; Point; Range ]

let cls_name = function
  | Update -> "update"
  | Insert -> "insert"
  | Delete -> "delete"
  | Rollback -> "rollback"
  | Read -> "read"
  | Point -> "point_lookup"
  | Range -> "range_lookup"

let cls_index = function
  | Update -> 0
  | Insert -> 1
  | Delete -> 2
  | Rollback -> 3
  | Read -> 4
  | Point -> 5
  | Range -> 6

(* Client mix, in percent. Deletes never run beside inserts: with slots
   freed by uncommitted deletes, [Table_ops.insert] keeps the X lock of a
   slot it waited for even when it places the record elsewhere, and two
   single-record inserts then deadlock on some seeds and not on others
   (CHANGES.md, FOUND). So index_oltp runs its transactions in two parts,
   the first with inserts and the second with deletes in their place, and
   the build workloads have no deletes. For the same reason a rollback on
   request undoes an update, never an insert, whose undo also frees a
   slot. *)
let mix wl ~deleting =
  match wl with
  | Sf_build | Nsf_crash_resume ->
    [ (Update, 40); (Insert, 15); (Rollback, 5); (Read, 40) ]
  | Index_oltp ->
    [ (Point, 40); (Range, 10); (Update, 30);
      ((if deleting then Delete else Insert), 15); (Rollback, 5) ]

(* In index_oltp an update rewrites the payload and keeps the indexed
   value: [Table_ops.index_lookup] and [range_lookup] lock and read a
   record after probing the tree without checking it still holds the
   key, so a lookup beside a committed change of the indexed value
   returns a record outside its key on some seeds (CHANGES.md, FOUND). *)
let updates_indexed_column = function
  | Sf_build | Nsf_crash_resume -> true
  | Index_oltp -> false

let pick_cls mix rng =
  let r = Rng.int rng 100 in
  let rec go acc = function
    | [ (c, _) ] -> c
    | (c, w) :: rest -> if r < acc + w then c else go (acc + w) rest
    | [] -> assert false
  in
  go 0 mix

type cstat = {
  mutable attempted : int;
  mutable done_ : int;  (** committed, or rolled back on request *)
  mutable failed : int;  (** Deadlock or Unique_violation *)
  mutable interrupted : int;  (** cut short by the deliberate crash *)
}

(* Growable float sample buffer. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* Percentile of a sample (nearest rank on the sorted copy); 0 if empty. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))
  end

let median xs = percentile (Array.of_list xs) 0.5

(* ---------- the run environment ---------- *)

type write =
  | W_update of Rid.t * Record.t
  | W_insert of Record.t
  | W_delete of Rid.t

type pending = {
  p_cls : cls;
  p_write : write option;
  mutable applied : Rid.t option;
      (** the record the write's statement changed, once it has returned *)
}

type env = {
  wl : workload;
  name : string;
  size : size;
  seed : int;
  domain : int;  (** distinct indexed values *)
  zipf : Zipf.t;  (** lookup popularity over value ranks *)
  perm : int array;  (** value rank -> value *)
  spans : Spans.t;
  deadline : int;  (** ns on the monotonic clock *)
  plant : plant;
  mutable planted : Rid.t option;  (** the record a plant corrupted *)
  model : Model.t;
  stats : cstat array;
  write_lat : Samples.t;
  read_lat : Samples.t;
  inflight : pending option array;
  mutable deleting : bool;  (** index_oltp's second part *)
  mutable group : int;  (** span group ids *)
  mutable seq : int;  (** unique payload counter *)
}

let check_budget env =
  if Clock.now () > env.deadline then
    raise
      (Over_budget
         (Printf.sprintf "workload %s ran over its time budget" env.name))

let next_group env =
  env.group <- env.group + 1;
  env.group

let fail env ~check fmt = Model.fail ~workload:env.name ~check fmt
let value_of v = Printf.sprintf "v%07d" v

(* ---------- inputs ---------- *)

(* Rows: the indexed value uniform over [domain] (about four rows per
   value), a payload unique to the row. *)
let gen_rows ~seed ~rows ~domain =
  let rng = Rng.create ((seed * 1_000_003) + 17) in
  Array.init rows (fun i ->
      Record.make
        [| value_of (Rng.int rng domain);
           Printf.sprintf "load-%07d-%08x" i (Rng.int rng 0x3fffffff) |])

let fresh_record env rng ~client =
  env.seq <- env.seq + 1;
  Record.make
    [| value_of (Rng.int rng env.domain);
       Printf.sprintf "c%d-%07d-%08x" client env.seq (Rng.int rng 0x3fffffff) |]

(* ---------- clients ---------- *)

(* One client transaction: it touches one record (lookups excepted),
   and its latency runs from the [Engine.run_txn] call to its return. *)
let one_txn env (ctx : Ctx.t) ~client rng =
  let cls = pick_cls (mix env.wl ~deleting:env.deleting) rng in
  let st = env.stats.(cls_index cls) in
  st.attempted <- st.attempted + 1;
  let group = next_group env in
  (* a write on the client's own records; a rollback applies an update,
     then asks for the rollback *)
  let write =
    match cls with
    | Update | Rollback ->
      let rid = Model.Rid_set.pick env.model.Model.owned.(client) rng in
      let r = fresh_record env rng ~client in
      let r =
        if updates_indexed_column env.wl then r
        else
          Record.make
            [| Model.value (Option.get (Model.find env.model rid));
               r.Record.cols.(1) |]
      in
      Some (W_update (rid, r))
    | Insert -> Some (W_insert (fresh_record env rng ~client))
    | Delete ->
      Some (W_delete (Model.Rid_set.pick env.model.Model.owned.(client) rng))
    | Read | Point | Range -> None
  in
  let p = { p_cls = cls; p_write = write; applied = None } in
  env.inflight.(client) <- Some p;
  let top = Spans.enter env.spans ~name:"txn.run_txn" ~group ~parent:Spans.none in
  (* the statement, then a yield standing for the client's round trip
     before it asks to commit; the round trip has its own span, so the
     self time of txn.run_txn leaves out the other fibers that run in it *)
  let span name f =
    let v = Spans.wrap env.spans ~name ~group ~parent:top f in
    Spans.wrap env.spans ~name:"client.round_trip" ~group ~parent:top
      (fun () -> Sched.yield ctx.Ctx.sched);
    v
  in
  let t0 = Clock.now () in
  let outcome =
    match (cls, write) with
    | Read, _ ->
      let rid = Model.Rid_set.pick env.model.Model.all rng in
      let r =
        Engine.run_txn ctx (fun txn ->
            span "core.table_ops.read" (fun () ->
                Table_ops.read ctx txn ~table rid))
      in
      Result.map
        (fun got ->
          match (got, Model.find env.model rid) with
          | Some g, Some w when Record.equal g w -> ()
          | None, None -> ()
          | _ ->
            fail env ~check:"read"
              "read of rid %s returned %s, the model holds %s"
              (Model.show_rid rid)
              (match got with Some g -> Model.show_record g | None -> "nothing")
              (match Model.find env.model rid with
              | Some w -> Model.show_record w
              | None -> "nothing"))
        r
    | Point, _ ->
      let v = value_of env.perm.(Zipf.sample env.zipf rng) in
      Result.map
        (Model.check_point ~workload:env.name env.model v)
        (Engine.run_txn ctx (fun txn ->
             span "core.table_ops.index_lookup" (fun () ->
                 Table_ops.index_lookup ctx txn ~index:index_id v)))
    | Range, _ ->
      let u = Rng.int rng env.domain in
      let lo = value_of u and hi = value_of (u + 3) in
      Result.map
        (Model.check_range ~workload:env.name env.model ~lo ~hi)
        (Engine.run_txn ctx (fun txn ->
             span "core.table_ops.range_lookup" (fun () ->
                 Table_ops.range_lookup ctx txn ~index:index_id ~lo ~hi ())))
    | _, Some w -> (
      match
        Engine.run_txn ctx (fun txn ->
            (match w with
            | W_update (rid, r) ->
              span "core.table_ops.update" (fun () ->
                  Table_ops.update ctx txn ~table rid r;
                  p.applied <- Some rid)
            | W_insert r ->
              span "core.table_ops.insert" (fun () ->
                  p.applied <- Some (Table_ops.insert ctx txn ~table r))
            | W_delete rid ->
              span "core.table_ops.delete" (fun () ->
                  Table_ops.delete ctx txn ~table rid;
                  p.applied <- Some rid));
            if cls = Rollback then raise Rollback_requested)
      with
      | Ok () ->
        (match w with
        | W_update (rid, r) -> Model.insert env.model ~owner:client rid r
        | W_insert r ->
          Model.insert env.model ~owner:client (Option.get p.applied) r
        | W_delete rid -> Model.remove env.model rid);
        Ok ()
      | Error _ as e -> e
      | exception Rollback_requested -> Ok ())
    | (Update | Insert | Delete | Rollback), None -> assert false
  in
  let t1 = Clock.now () in
  Spans.exit env.spans top;
  env.inflight.(client) <- None;
  match outcome with
  | Ok () -> (
    st.done_ <- st.done_ + 1;
    let us = Clock.micros (t1 - t0) in
    match cls with
    | Update | Insert | Delete | Rollback -> Samples.add env.write_lat us
    | Read | Point -> Samples.add env.read_lat us
    | Range -> ())
  | Error (`Deadlock | `Unique_violation _) -> st.failed <- st.failed + 1

(* Closed loop: each client sends its next transaction only when the
   previous one has returned. [quota] < 0 runs until [stop ()]. *)
let spawn_clients env (ctx : Ctx.t) ~incarnation ~stop ~quota =
  for client = 0 to env.size.clients - 1 do
    let rng = Rng.create ((env.seed * 7919) + (client * 104_729) + incarnation) in
    ignore
      (Sched.spawn ctx.Ctx.sched ~name:(Printf.sprintf "client-%d" client)
         (fun () ->
           let n = ref 0 in
           while (not (stop ())) && (quota < 0 || !n < quota) do
             incr n;
             one_txn env ctx ~client rng;
             Sched.yield ctx.Ctx.sched
           done))
  done

(* ---------- build phase stamps (traced run) ---------- *)

type phases = {
  times : (BS.phase, int) Hashtbl.t;  (** ns spent in each phase *)
  mutable cur : BS.phase option;
  mutable since : int;
  mutable span : int;
  mutable last_time : int;  (** clock at the previous poll *)
  mutable last_step : int;  (** scheduler step of the previous poll *)
  mutable build_span : int;
  mutable build_group : int;
}

let new_phases () =
  { times = Hashtbl.create 8; cur = None; since = 0; span = Spans.none;
    last_time = 0; last_step = 0; build_span = Spans.none; build_group = 0 }

let phase_span_name p = "core.ib.phase." ^ BS.phase_name p

let add_time ph p ns =
  Hashtbl.replace ph.times p
    (ns + Option.value ~default:0 (Hashtbl.find_opt ph.times p))

let close_phase env ph now =
  (match ph.cur with Some p -> add_time ph p (now - ph.since) | None -> ());
  Spans.exit_at env.spans ph.span now;
  ph.span <- Spans.none;
  ph.cur <- None

(* Stamp the phase changes of the build's [Build_status]; polled before
   every scheduler step and once when the build returns. A phase that
   begins and ends within one step without yielding (the merge; NSF's
   quiesce when no writer holds the table) is given that whole step. *)
let poll_phase env (ctx : Ctx.t) ph =
  let now = Clock.now () in
  (match Hashtbl.find_opt ctx.Ctx.builds index_id with
  | Some st when ph.cur <> Some st.BS.phase ->
    let within =
      List.filter_map
        (fun (p, step) ->
          if step >= ph.last_step && p <> BS.Init && p <> st.BS.phase
             && Some p <> ph.cur
          then Some p
          else None)
        (BS.history st)
    in
    (match within with
    | [] -> close_phase env ph now
    | p :: _ ->
      close_phase env ph ph.last_time;
      add_time ph p (now - ph.last_time);
      Spans.add env.spans ~name:(phase_span_name p) ~group:ph.build_group
        ~parent:ph.build_span ~start:ph.last_time ~stop:now);
    if st.BS.phase <> BS.Ready then begin
      ph.cur <- Some st.BS.phase;
      ph.since <- now;
      ph.span <-
        Spans.enter env.spans ~name:(phase_span_name st.BS.phase)
          ~group:ph.build_group ~parent:ph.build_span
    end
  | _ -> ());
  ph.last_time <- now;
  ph.last_step <- Sched.steps ctx.Ctx.sched

let phase_s ph p =
  Clock.seconds (Option.value ~default:0 (Hashtbl.find_opt ph.times p))

(* Step hooks: the time budget always; the phase stamps when traced. *)
let install_hooks env (ctx : Ctx.t) ph =
  ignore
    (Sched.add_step_hook ctx.Ctx.sched (fun steps ->
         if steps land 1023 = 0 then check_budget env));
  if env.spans.Spans.on then begin
    ph.last_time <- Clock.now ();
    ph.last_step <- 0;
    ignore (Sched.add_step_hook ctx.Ctx.sched (fun _ -> poll_phase env ctx ph))
  end

(* ---------- set-up ---------- *)

let load env (ctx : Ctx.t) rows =
  let n = Array.length rows in
  let rids = Array.make n Rid.minus_infinity in
  let i = ref 0 in
  while !i < n do
    let lo = !i and hi = min n (!i + 64) in
    (match
       Engine.run_txn ctx (fun txn ->
           for j = lo to hi - 1 do
             rids.(j) <- Table_ops.insert ctx txn ~table rows.(j)
           done)
     with
    | Ok () -> ()
    | Error _ -> fail env ~check:"load" "load transaction at row %d aborted" lo);
    i := hi;
    check_budget env
  done;
  rids

(* ---------- checks ---------- *)

let index_entries (ctx : Ctx.t) =
  let tree = (Catalog.index ctx.Ctx.catalog index_id).Catalog.tree in
  let acc = ref [] in
  Btree.iter_entries tree (fun k ~pseudo ->
      acc := (k.Ikey.kv, k.Ikey.rid, pseudo) :: !acc);
  List.rev !acc

let heap_records (ctx : Ctx.t) =
  Heap_file.all_records (Catalog.table ctx.Ctx.catalog table).Catalog.heap

let check_oracles env ~check (ctx : Ctx.t) =
  (match Engine.consistency_errors ctx with
  | [] -> ()
  | e :: _ -> fail env ~check:(check ^ "/consistency_errors") "%s" e);
  match Engine.lifecycle_errors ~final:true ctx with
  | [] -> ()
  | e :: _ -> fail env ~check:(check ^ "/lifecycle_errors") "%s" e

(* Model against heap and finished index, then the engine's own oracles
   (extra checks, not substitutes). *)
let check_all env ~check ctx =
  Model.check_heap ~workload:env.name ~check:(check ^ "/heap") env.model
    (heap_records ctx);
  Model.check_index ~workload:env.name ~check:(check ^ "/index") env.model
    (index_entries ctx);
  check_oracles env ~check ctx

(* Self-test plants that corrupt one settled model record. *)
let plant_record env =
  match (env.plant, Model.sorted env.model) with
  | Drop_record, (rid, _) :: _ ->
    env.planted <- Some rid;
    Hashtbl.remove env.model.Model.recs rid
  | Change_value, (rid, r) :: _ ->
    env.planted <- Some rid;
    Hashtbl.replace env.model.Model.recs rid
      (Record.make [| value_of (env.domain + 1); r.Record.cols.(1) |])
  | (No_plant | Keep_inflight | Drop_record | Change_value), _ -> ()

(* Right after [Engine.crash]: every acknowledged commit is present (the
   heap equals the model), and every write in flight at the crash is
   absent. *)
let check_durability env (ctx : Ctx.t) =
  let check = "after-crash" in
  let inflight =
    Array.to_list env.inflight
    |> List.filter_map (function
         | Some { p_write = Some (W_update (_, r) | W_insert r); applied = Some rid; _ }
           ->
           Some (rid, r)
         | _ -> None)
  in
  (if env.plant = Keep_inflight then
     match inflight with
     | (rid, r) :: _ ->
       env.planted <- Some rid;
       Model.insert env.model ~owner:0 rid r
     | [] -> fail env ~check "no write was in flight at the crash to plant");
  let heap = heap_records ctx in
  Model.check_heap ~workload:env.name ~check env.model heap;
  let by_rid = Hashtbl.create (List.length heap) in
  List.iter (fun (rid, r) -> Hashtbl.replace by_rid rid r) heap;
  List.iter
    (fun (rid, r) ->
      match Hashtbl.find_opt by_rid rid with
      | Some got when Record.equal got r ->
        fail env ~check "the write in flight at rid %s survived the crash"
          (Model.show_rid rid)
      | _ -> ())
    inflight

(* After the run, with no client active: lookups compared exactly with the
   model. *)
let quiescent_lookups env (ctx : Ctx.t) rng =
  let ordered = Model.key_ordered env.model in
  for i = 1 to 400 do
    let u = Rng.int rng env.domain in
    let lo = value_of u in
    let hi = if i mod 4 = 0 then value_of (u + 3) else lo in
    let got =
      match
        Engine.run_txn ctx (fun txn ->
            if lo = hi then Table_ops.index_lookup ctx txn ~index:index_id lo
            else Table_ops.range_lookup ctx txn ~index:index_id ~lo ~hi ())
      with
      | Ok g -> g
      | Error _ -> fail env ~check:"quiescent-lookup" "lookup %s aborted" lo
    in
    (* a point lookup's order is the tree's; compare as key-ordered *)
    let got =
      List.sort
        (fun (r1, a) (r2, b) ->
          Model.compare_entry (Model.value a, r1) (Model.value b, r2))
        got
    in
    Model.check_exact ~workload:env.name ~check:"quiescent-lookup"
      ~what:(Printf.sprintf "lookup [%s,%s]" lo hi)
      (Model.expected_range ordered ~lo ~hi)
      got
  done

(* ---------- per-layer replays (traced run) ---------- *)

let time_ns f =
  let t0 = Clock.now () in
  f ();
  Clock.now () - t0

(* The table's keys, page by page, through the restartable sort and the
   merge, as the builder feeds them. *)
let replay_sort (ctx : Ctx.t) =
  let by_page = Hashtbl.create 4096 in
  let pages = ref [] in
  List.iter
    (fun ((rid : Rid.t), r) ->
      if not (Hashtbl.mem by_page rid.Rid.page) then pages := rid.Rid.page :: !pages;
      Hashtbl.replace by_page rid.Rid.page
        (Ikey.make (Model.value r) rid
        :: Option.value ~default:[] (Hashtbl.find_opt by_page rid.Rid.page)))
    (heap_records ctx);
  let pages =
    List.rev_map (fun p -> (p, List.rev (Hashtbl.find by_page p))) !pages
    |> List.sort compare
  in
  let keys = List.fold_left (fun n (_, ks) -> n + List.length ks) 0 pages in
  let kv = Oib_storage.Durable_kv.create () in
  let runs = Oib_sort.Run_store.create () in
  let memory_keys = (Ib.default_config Ib.Sf).Ib.memory_keys in
  let ns =
    time_ns (fun () ->
        let s =
          Oib_sort.Sort_phase.start kv runs ~ckpt_id:"bench/sort" ~memory_keys
        in
        List.iter (fun (p, ks) -> Oib_sort.Sort_phase.feed_page s ~scan_pos:p ks)
          pages;
        let inputs = Oib_sort.Sort_phase.finish s in
        ignore
          (Oib_sort.Merge_phase.merge_all kv runs ~ckpt_id:"bench/merge" ~inputs
             ~output:"bench/sorted" ~fan_in:16 ~ckpt_every:4096))
  in
  float_of_int ns /. float_of_int (max 1 keys)

(* Btree.read_state on keys sampled from the finished index. *)
let replay_probe (ctx : Ctx.t) =
  let tree = (Catalog.index ctx.Ctx.catalog index_id).Catalog.tree in
  let all = Array.of_list (index_entries ctx) in
  let n = min 20_000 (Array.length all) in
  let stride = max 1 (Array.length all / max 1 n) in
  let keys =
    Array.init n (fun i ->
        let v, rid, _ = all.(i * stride) in
        Ikey.make v rid)
  in
  let passes = 3 in
  let ns =
    time_ns (fun () ->
        for _ = 1 to passes do
          Array.iter (fun k -> ignore (Btree.read_state tree k)) keys
        done)
  in
  float_of_int ns /. float_of_int (max 1 (passes * n))

let replay_pool_get (ctx : Ctx.t) =
  let ids =
    Heap_file.page_ids (Catalog.table ctx.Ctx.catalog table).Catalog.heap
  in
  let passes = 5 in
  let ns =
    time_ns (fun () ->
        for _ = 1 to passes do
          List.iter
            (fun id -> ignore (Oib_storage.Buffer_pool.get ctx.Ctx.pool id))
            ids
        done)
  in
  float_of_int ns /. float_of_int (max 1 (passes * List.length ids))

(* One durable_records call on the survivor's log, then Log_codec.encode
   of the same records: (records, decode ns/record, encode ns/record). *)
let replay_wal (ctx : Ctx.t) =
  let recs = ref [] in
  let dec = time_ns (fun () -> recs := LM.durable_records ctx.Ctx.log) in
  let n = List.length !recs in
  let enc =
    time_ns (fun () ->
        List.iter (fun r -> ignore (Oib_wal.Log_codec.encode r)) !recs)
  in
  let per x = float_of_int x /. float_of_int (max 1 n) in
  (n, per dec, per enc)

(* ---------- one round ---------- *)

type round = {
  setup_ns : int;
  build_ns : int;  (** build start to Ready, excluding recovery *)
  measured_ns : int;  (** client phase, excluding recovery *)
  recovery_ns : int;
  rows_at_build : int;
  writes : float array;  (** write latencies, us *)
  reads : float array;  (** read (by RID) or point-lookup latencies, us *)
  txns : int;  (** client transactions done *)
  wal_bytes : int;
  ops : cstat array;  (** per class, indexed by [cls_index] *)
  counts : (string * int) list;  (** deterministic for a seed *)
  layer : (string * float) list;  (** traced per-layer figures *)
}

let gc_counters () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words,
   s.Gc.minor_collections, s.Gc.major_collections)

let run_round env ~rows =
  let wl = env.wl in
  let traced = env.spans.Spans.on in
  let alg = match wl with Nsf_crash_resume -> Ib.Nsf | _ -> Ib.Sf in
  let cfg = Ib.default_config alg in
  let ph = new_phases () in
  (* ---- set-up ---- *)
  let t_setup = Clock.now () in
  let setup_group = next_group env in
  let ctx = Engine.create ~seed:env.seed () in
  ignore (Catalog.create_table ctx.Ctx.catalog ctx.Ctx.pool ~table_id:table);
  let t_load = Clock.now () in
  let rids =
    Spans.wrap env.spans ~name:"core.table_ops.load" ~group:setup_group
      ~parent:Spans.none (fun () -> load env ctx rows)
  in
  let load_ns = Clock.now () - t_load in
  let t_ckpt = Clock.now () in
  Spans.wrap env.spans ~name:"core.engine.checkpoint" ~group:setup_group
    ~parent:Spans.none (fun () -> Engine.checkpoint ctx);
  let ckpt_ns = Clock.now () - t_ckpt in
  Array.iteri
    (fun j rid ->
      Model.insert env.model ~owner:(j mod env.size.clients) rid rows.(j))
    rids;
  let heap_pages =
    Heap_file.page_count (Catalog.table ctx.Ctx.catalog table).Catalog.heap
  in
  install_hooks env ctx ph;
  (* the build and its resumption share one span group *)
  let build_in_fiber ?(name = "core.ib.build") (ctx : Ctx.t) ~ready ~t0 ~t1 ~f
      =
    ignore
      (Sched.spawn ctx.Ctx.sched ~name:"ib" (fun () ->
           t0 := Clock.now ();
           if ph.build_group = 0 then ph.build_group <- next_group env;
           ph.build_span <-
             Spans.enter env.spans ~name ~group:ph.build_group
               ~parent:Spans.none;
           f ();
           t1 := Clock.now ();
           if traced then poll_phase env ctx ph;
           Spans.exit env.spans ph.build_span;
           ready := true))
  in
  let oltp_build_ns =
    match wl with
    | Index_oltp ->
      let ready = ref false and b0 = ref 0 and b1 = ref 0 in
      build_in_fiber ctx ~ready ~t0:b0 ~t1:b1 ~f:(fun () ->
          Ib.build_index ctx cfg ~table spec);
      Sched.run ctx.Ctx.sched;
      !b1 - !b0
    | Sf_build | Nsf_crash_resume -> 0
  in
  let setup_ns = Clock.now () - t_setup in
  let rows_at_build = Model.size env.model in
  (* ---- measured phase ---- *)
  let m0 = Metrics.snapshot ctx.Ctx.metrics in
  let g0 = gc_counters () in
  let steps = ref 0 in
  let measured = ref 0 in
  (* [Sched.steps] counts from the scheduler's creation, set-up included *)
  let timed_run (c : Ctx.t) =
    let s0 = Sched.steps c.Ctx.sched in
    let t0 = Clock.now () in
    let finish () =
      measured := !measured + (Clock.now () - t0);
      steps := !steps + (Sched.steps c.Ctx.sched - s0)
    in
    match Sched.run c.Ctx.sched with
    | () -> finish ()
    | exception e ->
      finish ();
      raise e
  in
  let ready = ref false and b0 = ref 0 and b1 = ref 0 in
  let build_ns = ref oltp_build_ns in
  let recovery_ns = ref 0 in
  let wal_replay = ref (0, 0.0, 0.0) in
  let resume_ns = ref 0 in
  let res_before = ref (Oib_obs.Resource.create ()) in
  let ckpts_before = ref 0 in
  let crash_step = ref 0 in
  let restart (c : Ctx.t) =
    let r0 = Clock.now () in
    let group = next_group env in
    let c' =
      Spans.wrap env.spans ~name:"core.engine.crash" ~group ~parent:Spans.none
        (fun () -> Engine.crash c)
    in
    recovery_ns := Clock.now () - r0;
    if traced then wal_replay := replay_wal c';
    c'
  in
  let ctx =
    match wl with
    | Index_oltp ->
      (* half the transactions with inserts, then, once every client has
         finished, half with deletes in their place *)
      let quota = env.size.oltp_txns / env.size.clients / 2 in
      spawn_clients env ctx ~incarnation:0 ~stop:(fun () -> false) ~quota;
      timed_run ctx;
      env.deleting <- true;
      spawn_clients env ctx ~incarnation:1 ~stop:(fun () -> false) ~quota;
      timed_run ctx;
      ctx
    | Sf_build ->
      build_in_fiber ctx ~ready ~t0:b0 ~t1:b1 ~f:(fun () ->
          Ib.build_index ctx cfg ~table spec);
      spawn_clients env ctx ~incarnation:0 ~stop:(fun () -> !ready) ~quota:(-1);
      timed_run ctx;
      build_ns := !b1 - !b0;
      ctx
    | Nsf_crash_resume ->
      (* crash midway through the scan, once some client has a write
         applied but not committed; fixed for a given seed. (Midway
         through the insert phase a crash loses index entries' pseudo-
         deletes on some seeds: CHANGES.md, FOUND.) *)
      let target = rows_at_build / 2 in
      Sched.set_crash_trap ctx.Ctx.sched (fun _ ->
          match Hashtbl.find_opt ctx.Ctx.builds index_id with
          | Some st when st.BS.phase = BS.Scan ->
            st.BS.keys_processed >= target
            && Array.exists
                 (function
                   | Some { p_write = Some _; applied = Some _; _ } -> true
                   | _ -> false)
                 env.inflight
          | _ -> false);
      build_in_fiber ctx ~ready ~t0:b0 ~t1:b1 ~f:(fun () ->
          Ib.build_index ctx cfg ~table spec);
      spawn_clients env ctx ~incarnation:0 ~stop:(fun () -> !ready) ~quota:(-1);
      (match timed_run ctx with
      | () ->
        fail env ~check:"crash-point"
          "the build reached Ready before the crash point"
      | exception Sched.Crashed -> ());
      let t_crash = Clock.now () in
      crash_step := Sched.steps ctx.Ctx.sched;
      if traced then close_phase env ph t_crash;
      Spans.exit env.spans ph.build_span;
      let before_ns = t_crash - !b0 in
      (match Hashtbl.find_opt ctx.Ctx.builds index_id with
      | Some st ->
        res_before := Oib_obs.Resource.snapshot st.BS.resources;
        ckpts_before := st.BS.checkpoints
      | None -> ());
      Array.iter
        (function
          | Some p ->
            let s = env.stats.(cls_index p.p_cls) in
            s.interrupted <- s.interrupted + 1
          | None -> ())
        env.inflight;
      let ctx' = restart ctx in
      check_durability env ctx';
      Array.fill env.inflight 0 (Array.length env.inflight) None;
      install_hooks env ctx' ph;
      let r0 = ref 0 and r1 = ref 0 in
      build_in_fiber ~name:"core.ib.resume" ctx' ~ready ~t0:r0 ~t1:r1
        ~f:(fun () -> Ib.resume_builds ctx' cfg);
      spawn_clients env ctx' ~incarnation:1 ~stop:(fun () -> !ready)
        ~quota:(-1);
      timed_run ctx';
      resume_ns := !r1 - !r0;
      build_ns := before_ns + !resume_ns;
      ctx'
  in
  let m1 = Metrics.snapshot ctx.Ctx.metrics in
  let g1 = gc_counters () in
  let md = Metrics.diff ~after:m1 ~before:m0 in
  let build_res, build_ckpts =
    match Hashtbl.find_opt ctx.Ctx.builds index_id with
    | Some st ->
      let r = Oib_obs.Resource.snapshot st.BS.resources in
      Oib_obs.Resource.add_into ~into:r !res_before;
      (r, st.BS.checkpoints + !ckpts_before)
    | None -> (!res_before, !ckpts_before)
  in
  (* ---- checks, then a restart for the other workloads ---- *)
  plant_record env;
  check_all env ~check:"final" ctx;
  if wl = Index_oltp then
    quiescent_lookups env ctx (Rng.create ((env.seed * 31) + 5));
  let probe_ns = if traced then replay_probe ctx else 0.0 in
  let sort_ns = if traced then replay_sort ctx else 0.0 in
  let get_ns = if traced then replay_pool_get ctx else 0.0 in
  (match wl with
  | Sf_build | Index_oltp ->
    let ctx' = restart ctx in
    check_all env ~check:"after-restart" ctx'
  | Nsf_crash_resume -> ());
  let total_txns = Array.fold_left (fun n s -> n + s.done_) 0 env.stats in
  let counts =
    [ ("sim.steps", !steps); ("crash_step", !crash_step);
        ("wal.bytes", md.Metrics.log_bytes);
        ("wal.records", md.Metrics.log_records);
        ("storage.page_writes", md.Metrics.page_writes);
        ("storage.heap_file.pages", heap_pages);
        ("btree.traversals", md.Metrics.tree_traversals);
        ("btree.fast_path_inserts", md.Metrics.fast_path_inserts);
        ("btree.page_splits", md.Metrics.page_splits);
        ("btree.keys_rejected_duplicate", md.Metrics.keys_rejected_duplicate);
        ("btree.pseudo_deletes", md.Metrics.pseudo_deletes);
      ("model.records", Model.size env.model) ]
  in
  let layer =
    if not traced then []
    else begin
      let p50 name = percentile (Spans.durations env.spans name) 0.5 /. 1e3 in
      let ga, gmin, gmaj = g0 and ga', gmin', gmaj' = g1 in
      let wal_n, dec_ns, enc_ns = !wal_replay in
      let f = float_of_int in
      [ ("core.table_ops.load_ns_per_row", f load_ns /. f (Array.length rows));
        ("storage.heap_file.pages", f heap_pages);
        ("core.engine.checkpoint_s", Clock.seconds ckpt_ns);
        ("core.ib.scan_s", phase_s ph BS.Scan);
        ("core.ib.merge_s", phase_s ph BS.Merge);
        ("core.ib.insert_s", phase_s ph BS.Insert);
        ("core.ib.resume_s", Clock.seconds !resume_ns);
        ("core.ib.bulk_s", phase_s ph BS.Bulk);
        ("core.ib.drain_s", phase_s ph BS.Drain);
        ("core.ib.quiesce_s", phase_s ph BS.Quiesce);
        ("core.ib.checkpoints", f build_ckpts);
        ("core.ib.latch_wait_steps", f build_res.Oib_obs.Resource.latch_wait_steps);
        ("core.ib.lock_wait_steps", f build_res.Oib_obs.Resource.lock_wait_steps);
        ("sort.compares", f build_res.Oib_obs.Resource.sort_compares);
        ("sort.run_spills", f build_res.Oib_obs.Resource.run_spills);
        ("sort.feed_ns_per_key", sort_ns);
        ("btree.traversals", f md.Metrics.tree_traversals);
        ("btree.fast_path_inserts", f md.Metrics.fast_path_inserts);
        ("btree.page_splits", f md.Metrics.page_splits);
        ("btree.keys_rejected_duplicate", f md.Metrics.keys_rejected_duplicate);
        ("btree.pseudo_deletes", f md.Metrics.pseudo_deletes);
        ("btree.probe_ns", probe_ns);
        ("sidefile.appends", f md.Metrics.sidefile_appends);
        ("wal.records", f md.Metrics.log_records);
        ("wal.bytes", f md.Metrics.log_bytes);
        ("wal.flushes", f md.Metrics.log_flushes);
        ("wal.durable_records", f wal_n);
        ("wal.decode_ns_per_record", dec_ns);
        ("wal.encode_ns_per_record", enc_ns);
        ("lock.calls", f md.Metrics.lock_calls);
        ("lock.waits", f md.Metrics.lock_waits);
        ("sim.latch_acquires", f md.Metrics.latch_acquires);
        ("sim.latch_waits", f md.Metrics.latch_waits);
        ("sim.steps", f !steps);
        ("sim.ns_per_step", f !measured /. f (max 1 !steps));
        ("storage.page_writes", f md.Metrics.page_writes);
        ("storage.buffer_pool.get_ns", get_ns);
        ("storage.page_reads", f md.Metrics.page_reads);
        ("txn.commits", f md.Metrics.txn_commits);
        ("txn.aborts", f md.Metrics.txn_aborts);
        ("txn.overhead_us",
         percentile (Spans.self_times env.spans "txn.run_txn") 0.5 /. 1e3);
        ("core.table_ops.update_us", p50 "core.table_ops.update");
        ("core.table_ops.insert_us", p50 "core.table_ops.insert");
        ("core.table_ops.delete_us", p50 "core.table_ops.delete");
        ("core.table_ops.read_us", p50 "core.table_ops.read");
        ("core.table_ops.index_lookup_us", p50 "core.table_ops.index_lookup");
        ("core.table_ops.range_lookup_us", p50 "core.table_ops.range_lookup");
        ("ocaml.gc.allocated_mb", (ga' -. ga) *. 8.0 /. 1048576.0);
        ("ocaml.gc.minor_collections", f (gmin' - gmin));
        ("ocaml.gc.major_collections", f (gmaj' - gmaj)) ]
    end
  in
  {
    setup_ns;
    build_ns = !build_ns;
    measured_ns = !measured;
    recovery_ns = !recovery_ns;
    rows_at_build;
    writes = Samples.to_array env.write_lat;
    reads = Samples.to_array env.read_lat;
    txns = total_txns;
    wal_bytes = md.Metrics.log_bytes;
    ops = env.stats;
    counts;
    layer;
  }

let make_env ?(plant = No_plant) ~wl ~size ~seed ~traced ~deadline () =
  let domain = max 1 (size.rows / 4) in
  let perm = Array.init domain Fun.id in
  Rng.shuffle (Rng.create ((seed * 131) + 7)) perm;
  {
    wl;
    name = workload_name wl;
    size;
    seed;
    domain;
    zipf = Zipf.create ~n:domain ~theta:0.9;
    perm;
    spans = Spans.create ~on:traced;
    deadline;
    plant;
    planted = None;
    model = Model.create ~clients:size.clients;
    stats =
      Array.of_list
        (List.map
           (fun _ -> { attempted = 0; done_ = 0; failed = 0; interrupted = 0 })
           classes);
    write_lat = Samples.create ();
    read_lat = Samples.create ();
    inflight = Array.make size.clients None;
    deleting = false;
    group = 0;
    seq = 0;
  }

(* One round on fresh inputs generated from [seed]. *)
let round ?plant ~wl ~size ~seed ~traced ~deadline () =
  let env = make_env ?plant ~wl ~size ~seed ~traced ~deadline () in
  let rows = gen_rows ~seed ~rows:size.rows ~domain:env.domain in
  (env, run_round env ~rows)
