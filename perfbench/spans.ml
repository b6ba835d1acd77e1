(* In-memory span recorder for the traced run.

   A span is a name, a start and an end on the monotonic clock, the span
   that caused it, and a group id shared by every span of one client
   transaction, one build or one recovery. Spans are kept in growable
   column arrays and written out as JSON lines when the run ends. With
   tracing off every call is a no-op that neither reads the clock nor
   allocates. *)

type t = {
  on : bool;
  mutable n : int;
  mutable names : string array;
  mutable groups : int array;
  mutable parents : int array;
  mutable starts : int array;
  mutable stops : int array;
}

let none = -1

let create ~on =
  { on; n = 0; names = [||]; groups = [||]; parents = [||]; starts = [||];
    stops = [||] }

let grow t =
  let cap = max 1024 (2 * Array.length t.starts) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- extend t.names "";
  t.groups <- extend t.groups 0;
  t.parents <- extend t.parents none;
  t.starts <- extend t.starts 0;
  t.stops <- extend t.stops 0

let enter t ~name ~group ~parent =
  if not t.on then none
  else begin
    if t.n = Array.length t.starts then grow t;
    let id = t.n in
    t.names.(id) <- name;
    t.groups.(id) <- group;
    t.parents.(id) <- parent;
    t.stops.(id) <- -1;
    t.n <- id + 1;
    t.starts.(id) <- Clock.now ();
    id
  end

let exit_at t id time = if id <> none then t.stops.(id) <- time
let exit t id = if id <> none then exit_at t id (Clock.now ())

(* A span whose times are already known. *)
let add t ~name ~group ~parent ~start ~stop =
  let id = enter t ~name ~group ~parent in
  if id <> none then begin
    t.starts.(id) <- start;
    t.stops.(id) <- stop
  end

let wrap t ~name ~group ~parent f =
  if not t.on then f ()
  else begin
    let id = enter t ~name ~group ~parent in
    match f () with
    | v ->
      exit t id;
      v
    | exception e ->
      exit t id;
      raise e
  end

let closed t id = t.stops.(id) >= 0
let duration t id = t.stops.(id) - t.starts.(id)

(* Durations (ns) of every closed span called [name]. *)
let durations t name =
  let acc = ref [] in
  for id = t.n - 1 downto 0 do
    if closed t id && String.equal t.names.(id) name then
      acc := float_of_int (duration t id) :: !acc
  done;
  Array.of_list !acc

(* Self time (ns) of every closed span called [name]: its duration minus
   the part its closed child spans cover. *)
let self_times t name =
  let child = Array.make t.n 0 in
  for id = 0 to t.n - 1 do
    let p = t.parents.(id) in
    if p <> none && closed t id then child.(p) <- child.(p) + duration t id
  done;
  let acc = ref [] in
  for id = t.n - 1 downto 0 do
    if closed t id && String.equal t.names.(id) name then
      acc := float_of_int (duration t id - child.(id)) :: !acc
  done;
  Array.of_list !acc

let write t path =
  let oc = open_out path in
  for id = 0 to t.n - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%S,\"group\":%d,\"parent\":%d,\"start_ns\":%d,\
       \"end_ns\":%d}\n"
      id t.names.(id) t.groups.(id) t.parents.(id) t.starts.(id) t.stops.(id)
  done;
  close_out oc
