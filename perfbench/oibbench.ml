(* Wall-clock benchmark of online index builds.

     oibbench --workload sf_build|nsf_crash_resume|index_oltp --seed N
              --seconds S --trace 0|1 [--rows N]
     oibbench --selftest

   A run repeats rounds of the workload for about S seconds, at least
   three, and prints every metric by name with its unit, the attempted /
   done / failed / interrupted count of each operation class, and as its
   last line one JSON object. With --trace 0
   the metrics are the end-to-end ones; with --trace 1 the per-layer ones,
   and the spans of the first round are written to perfbench/out/. A failed check, an
   exception out of the engine or a run over its time budget exits 1 and
   names the workload and the check, with no metrics printed. *)

open Bench

let min_rounds = 3
let max_rounds = 40

(* Hard wall-time budget of one run, set-up and checks included. *)
let budget_s = 160

let metric name value unit_ = (name, value, unit_)

(* Latency percentiles are taken over the samples of all rounds. *)
let pooled f rounds = Array.concat (List.map f rounds)

let end_to_end rounds heap_peak_mb =
  let r1 = List.hd rounds in
  let med f = median (List.map f rounds) in
  let writes = pooled (fun r -> r.writes) rounds in
  let reads = pooled (fun r -> r.reads) rounds in
  let f = float_of_int in
  [ metric "setup_s" (med (fun r -> Clock.seconds r.setup_ns)) "s";
    metric "build_ns_per_key"
      (med (fun r -> f r.build_ns /. f (max 1 r.rows_at_build)))
      "ns";
    metric "fg_txn_per_s"
      (med (fun r -> f r.txns /. Clock.seconds (max 1 r.measured_ns)))
      "txn/s";
    metric "fg_write_p50_us" (percentile writes 0.5) "us";
    metric "fg_write_p95_us" (percentile writes 0.95) "us";
    metric "fg_read_p50_us" (percentile reads 0.5) "us";
    metric "fg_read_p95_us" (percentile reads 0.95) "us";
    metric "recovery_s" (med (fun r -> Clock.seconds r.recovery_ns)) "s";
    metric "wal_bytes_per_key"
      (f r1.wal_bytes /. f (max 1 r1.rows_at_build))
      "B";
    metric "wal_bytes_per_txn" (f r1.wal_bytes /. f (max 1 r1.txns)) "B";
    metric "heap_peak_mb" heap_peak_mb "MB" ]

let layer_unit name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_ns_per_row" || ends "_ns_per_key" || ends "_ns_per_record"
     || ends "_ns" || ends "ns_per_step"
  then "ns"
  else if ends "_us" then "us"
  else if ends "_s" then "s"
  else if ends "_mb" then "MB"
  else if name = "wal.bytes" then "B"
  else "count"

(* Times are medians over the rounds; counts are round 0's, so one seed
   always reports the same counts. *)
let per_layer rounds =
  let r1 = List.hd rounds in
  List.map
    (fun (name, v1) ->
      let u = layer_unit name in
      let v =
        if u = "count" || u = "B" then v1
        else median (List.map (fun r -> List.assoc name r.layer) rounds)
      in
      metric name v u)
    r1.layer

(* Shortest decimal that reads back as exactly [v]. *)
let json_number v =
  if not (Float.is_finite v) then invalid_arg "json_number: not finite";
  let rec go p =
    let s = Printf.sprintf "%.*g" p v in
    if p >= 17 || float_of_string s = v then s else go (p + 1)
  in
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else go 1

let print_result ~attempted ~failed metrics =
  let body =
    List.map
      (fun (n, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
      metrics
  in
  Printf.printf
    "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    attempted failed (String.concat ", " body)

(* Round [k] of a run on [seed] uses inputs and a schedule from its own
   seed, so a run's medians average over interleavings; round 0 uses
   [seed] itself, and the counts a run reports are round 0's. *)
let round_seed seed k = if k = 0 then seed else (seed * 1_000_003) + (k * 7919)

(* Where the traced run writes the spans of its first round. *)
let spans_dir = Filename.concat "perfbench" "out"

let run ~wl ~seed ~seconds ~traced ~rows =
  let t_start = Clock.now () in
  let size = { full with rows } in
  let deadline = t_start + (budget_s * 1_000_000_000) in
  let rounds = ref [] in
  let heap_peak_mb = ref 0.0 in
  let attempted = ref 0 and failed = ref 0 in
  let continue_ () =
    let n = List.length !rounds in
    let elapsed = Clock.now () - t_start in
    n < min_rounds
    || n < max_rounds
       && elapsed + (elapsed / n) <= seconds * 1_000_000_000
  in
  while continue_ () do
    Gc.compact ();
    let k = List.length !rounds in
    let env, r =
      round ~wl ~size ~seed:(round_seed seed k) ~traced ~deadline ()
    in
    if k = 0 then begin
      heap_peak_mb :=
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
        /. 1048576.0;
      if traced then begin
        (try Sys.mkdir spans_dir 0o755 with Sys_error _ -> ());
        Spans.write env.spans
          (Filename.concat spans_dir
             (Printf.sprintf "spans-%s-seed%d.jsonl" env.name seed))
      end
    end;
    Array.iter
      (fun s ->
        attempted := !attempted + s.attempted;
        failed := !failed + s.failed)
      env.stats;
    rounds := !rounds @ [ r ]
  done;
  let rounds = !rounds in
  let r1 = List.hd rounds in
  Printf.printf "workload %s seed %d rows %d clients %d rounds %d trace %d\n"
    (workload_name wl) seed rows size.clients (List.length rounds)
    (if traced then 1 else 0);
  List.iter
    (fun c ->
      let s = r1.ops.(cls_index c) in
      Printf.printf
        "ops %-13s attempted %6d done %6d failed %d interrupted %d (round 0)\n"
        (cls_name c) s.attempted s.done_ s.failed s.interrupted)
    classes;
  List.iter (fun (n, v) -> Printf.printf "count %s %d\n" n v) r1.counts;
  List.iteri
    (fun i r ->
      Printf.printf
        "round %d setup %.3f s build %.3f s measured %.3f s recovery %.3f s \
         write p50 %.1f us p95 %.1f us\n"
        i (Clock.seconds r.setup_ns) (Clock.seconds r.build_ns)
        (Clock.seconds r.measured_ns) (Clock.seconds r.recovery_ns)
        (percentile r.writes 0.5) (percentile r.writes 0.95))
    rounds;
  let writes = pooled (fun r -> r.writes) rounds in
  List.iter
    (fun (p, q) ->
      Printf.printf "reference fg_write_%s_us %.3f us (all rounds, no bound)\n" p
        (percentile writes q))
    [ ("p99", 0.99); ("p99.9", 0.999); ("max", 1.0) ];
  let e2e = end_to_end rounds !heap_peak_mb in
  let layer = if traced then per_layer rounds else [] in
  List.iter
    (fun (n, v, u) -> Printf.printf "metric %s %s %s\n" n (json_number v) u)
    (e2e @ layer);
  print_result ~attempted:!attempted ~failed:!failed
    (if traced then layer else e2e)

(* ---------- self-test ---------- *)

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* Each workload at a tiny size: a clean run, the same seed again (every
   count repeats), a held-out seed (counts differ, checks pass), and each
   planted fault, which must fail naming the workload and the record. *)
let selftest () =
  let ok = ref true in
  let expect what cond =
    Printf.printf "%s %s\n%!" (if cond then "ok  " else "FAIL") what;
    if not cond then ok := false
  in
  let deadline = Clock.now () + (120 * 1_000_000_000) in
  let once seed = round ~size:tiny ~seed ~traced:false ~deadline () in
  List.iter
    (fun wl ->
      let name = workload_name wl in
      let _, a = once ~wl 1 and _, b = once ~wl 1 and _, c = once ~wl 2 in
      expect (name ^ ": same seed repeats every count")
        (a.ops = b.ops && a.counts = b.counts);
      expect (name ^ ": held-out seed 2 passes with different counts")
        (a.ops <> c.ops && a.counts <> c.counts);
      expect (name ^ ": no failed operations")
        (Array.for_all (fun s -> s.failed = 0) (Array.append a.ops c.ops));
      List.iter
        (fun (what, plant) ->
          let env =
            make_env ~plant ~wl ~size:tiny ~seed:1 ~traced:false ~deadline ()
          in
          let rows = gen_rows ~seed:1 ~rows:tiny.rows ~domain:env.domain in
          let what = Printf.sprintf "%s: planted fault (%s)" name what in
          match run_round env ~rows with
          | _ -> expect (what ^ " is caught") false
          | exception Model.Check_failed { workload; check; detail } ->
            expect
              (Printf.sprintf "%s is caught by %s: %s" what check detail)
              (workload = name
              && match env.planted with
                 | Some rid -> contains detail (Model.show_rid rid)
                 | None -> false))
        ([ ("drop one model record", Drop_record);
           ("change one record's value", Change_value) ]
        @
        if wl = Nsf_crash_resume then
          [ ("keep one write in flight at the crash", Keep_inflight) ]
        else []))
    workloads;
  (* the index check on its own, against a model it must reject *)
  let m = Model.create ~clients:1 in
  let rid p s = Oib_util.Rid.make ~page:p ~slot:s in
  let recs = [ (rid 0 0, "v1"); (rid 0 1, "v0"); (rid 1 0, "v1") ] in
  List.iter
    (fun (r, v) -> Model.insert m ~owner:0 r (Oib_util.Record.make [| v; "p" |]))
    recs;
  let entries =
    List.map (fun (r, v) -> (v, r, false)) recs
    |> List.sort (fun (v1, r1, _) (v2, r2, _) -> Model.compare_entry (v1, r1) (v2, r2))
  in
  let rejects what f =
    expect ("index check rejects " ^ what)
      (match f () with () -> false | exception Model.Check_failed _ -> true)
  in
  Model.check_index ~workload:"unit" ~check:"index" m entries;
  rejects "a missing entry" (fun () ->
      Model.check_index ~workload:"unit" ~check:"index" m (List.tl entries));
  rejects "an extra entry" (fun () ->
      Model.check_index ~workload:"unit" ~check:"index" m
        (entries @ [ ("v2", rid 2 0, false) ]));
  rejects "entries out of order" (fun () ->
      Model.check_index ~workload:"unit" ~check:"index" m (List.rev entries));
  if !ok then print_endline "selftest passed"
  else begin
    print_endline "selftest FAILED";
    exit 1
  end

(* ---------- command line ---------- *)

let () =
  let wl = ref "" and seed = ref 1 and seconds = ref 30 and trace = ref 0 in
  let rows = ref full.rows in
  let selftest_ = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string wl, "NAME sf_build | nsf_crash_resume | index_oltp");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S measure for about S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--rows", Arg.Set_int rows, "N table rows (default 40000)");
      ("--selftest", Arg.Set selftest_, " planted faults and determinism, tiny size") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "oibbench --workload NAME --seed N --seconds S --trace 0|1";
  if !selftest_ then selftest ()
  else begin
    let wl =
      match List.find_opt (fun w -> workload_name w = !wl) workloads with
      | Some w -> w
      | None ->
        prerr_endline ("oibbench: unknown workload " ^ !wl);
        exit 2
    in
    let name = workload_name wl in
    match
      run ~wl ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) ~rows:!rows
    with
    | () -> ()
    | exception Model.Check_failed { workload; check; detail } ->
      Printf.eprintf "FAIL workload %s check %s: %s\n" workload check detail;
      exit 1
    | exception Over_budget msg ->
      Printf.eprintf "FAIL workload %s check time-budget: %s\n" name msg;
      exit 1
    | exception e ->
      Printf.eprintf "FAIL workload %s check engine-exception: %s\n" name
        (Printexc.to_string e);
      exit 1
  end
