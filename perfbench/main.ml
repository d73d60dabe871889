(* The repository benchmark: one workload per invocation, driven over
   TCP against an in-process server.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with tracing off.
   --trace 1 alternates untraced and traced sub-windows, S/2 of each,
   and reports the per-layer ledger of the traced ones (the difference
   between the two kinds is the tracing overhead).  Every run checks every result; the last line of
   standard output is one JSON object. *)

module W = Workloads
module Db = Sedna_core.Database
module Gov = Sedna_db.Governor
module Sess = Sedna_db.Session
module Server = Sedna_server.Server
module Client = Sedna_server.Server_client
module Counters = Sedna_util.Counters
module Span = Sedna_util.Span

let mono = Sedna_util.Metrics.mono
let pf = Printf.printf
let ms s = s *. 1000.

(* setups per run: [setup_s] is their median *)
let setup_reps = 7

(* --trace 1 runs this many pairs of one untraced and one traced
   sub-window *)
let trace_pairs = 4

(* ---- arguments -------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload xmark-read|mixed-rw|library-cold --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let wl = ref None and seed = ref None and secs = ref None and trace = ref None in
  let int v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let rec go = function
    | "--workload" :: v :: r ->
      wl := W.find v;
      go r
    | "--seed" :: v :: r ->
      seed := Some (int v);
      go r
    | "--seconds" :: v :: r ->
      secs := Some (int v);
      go r
    | "--trace" :: v :: r ->
      trace := Some (int v);
      go r
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!wl, !seed, !secs, !trace) with
  | Some w, Some seed, Some s, Some t when s > 0 && (t = 0 || t = 1) ->
    (w, seed, float_of_int s, t = 1)
  | _ -> usage ()

(* ---- files ------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* data file + checksum sidecar + WAL *)
let store_bytes dir =
  List.fold_left
    (fun acc f -> acc + file_size (Filename.concat dir f))
    0 [ "data.sdb"; "data.sdb.cksum"; "wal.sdb" ]

(* median of repeated 4 KiB write + fsync in [dir] *)
let fsync_ms dir =
  let path = Filename.concat dir "fsync.probe" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let buf = Bytes.make 4096 'x' in
  let samples =
    List.init 20 (fun _ ->
        let t0 = mono () in
        ignore (Unix.write fd buf 0 4096);
        Unix.fsync fd;
        ms (mono () -. t0))
  in
  Unix.close fd;
  Sys.remove path;
  Stats.median samples

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> Float.nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* ---- the store -------------------------------------------------------- *)

(* Load the workload's document (Xml_parser + Loader), run its set-up
   statements (index builds, side subtree), checkpoint, and reopen with
   the workload's pool: loading pins every page it writes, so only a
   reopen gives the pool its configured size.  Returns the reopened
   database, the load time (parse + load, without the commit) and the
   node count. *)
let build_store ~frames dir (w : W.t) xml =
  let db = Db.create dir in
  let load_s, nodes =
    Db.with_txn db (fun txn st ->
        Db.lock_exn db txn ~doc:w.doc ~mode:Sedna_core.Lock_mgr.Exclusive;
        let t0 = mono () in
        let _, n = Sedna_core.Loader.load_string st ~doc_name:w.doc xml in
        (mono () -. t0, n))
  in
  let s = Sess.connect db in
  List.iter (fun q -> ignore (Sess.execute s q)) w.setup_statements;
  Db.close db;
  (Db.open_existing ~buffer_frames:frames dir, load_s, nodes)

(* The answer to every read text, computed once on a separate store
   with the rewriter off: the server's rewritten (and, on mixed-rw,
   index-probing) plans are checked against unrewritten scans. *)
let reference_answers tmp (w : W.t) seed =
  let dir = Filename.concat tmp "reference" in
  let db, _, _ = build_store ~frames:1024 dir w (w.xml seed) in
  let s = Sess.connect db in
  Sess.set_rewriter_options s Sedna_xquery.Rewriter.no_options;
  let answers = Hashtbl.create 64 in
  List.iter
    (fun (c : W.client) ->
      List.iter
        (fun (op : W.op) ->
          if op.kind = W.Query && not (Hashtbl.mem answers op.text) then
            Hashtbl.replace answers op.text (Sess.execute_string s op.text))
        c.warmup)
    (w.clients seed);
  Db.close db;
  rm_rf dir;
  answers

(* ---- running statements ----------------------------------------------- *)

(* outcomes shared by all client threads, under [mu] *)
type tally = {
  mu : Mutex.t;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** the first few, for the report *)
  acked_ins : (int, unit) Hashtbl.t;
  acked_del : (int, unit) Hashtbl.t;
  unknown : (int, unit) Hashtbl.t;  (** writes in flight at the kill *)
}

let new_tally () =
  {
    mu = Mutex.create ();
    attempted = 0;
    failed = 0;
    errors = [];
    acked_ins = Hashtbl.create 1024;
    acked_del = Hashtbl.create 1024;
    unknown = Hashtbl.create 4;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let fail t msg =
  locked t (fun () ->
      t.failed <- t.failed + 1;
      if List.length t.errors < 5 then t.errors <- msg :: t.errors)

let short s = if String.length s <= 60 then s else String.sub s 0 60 ^ "..."

(* Run one statement and check it.  [`Done] carries whether the answer
   was right; [`Lost] is an exception (a failure, unless the server was
   killed under it). *)
let exec_op answers tally conn (op : W.op) =
  match Client.execute conn op.text with
  | r ->
    let ok =
      match (op.kind, r) with
      | W.Query, Sess.Items got -> Hashtbl.find_opt answers op.text = Some got
      | (W.Insert _ | W.Delete _), Sess.Updated 1 -> true
      | _ -> false
    in
    locked tally (fun () ->
        tally.attempted <- tally.attempted + 1;
        match op.kind with
        | W.Insert k -> Hashtbl.replace tally.acked_ins k ()
        | W.Delete k -> Hashtbl.replace tally.acked_del k ()
        | W.Query -> ());
    if not ok then
      fail tally
        (Printf.sprintf "wrong result for %s: %s" (short op.text)
           (short (Sess.result_to_string r)));
    `Done ok
  | exception e -> `Lost e

type sample = {
  cls : W.cls;
  start : float;
  text : string;
  latency : float;
  trace : string option;
}

type window = {
  samples : sample list;  (** statements started before the deadline *)
  completed : int;  (** statements answered by the deadline *)
  executed : int;  (** all answered statements, incl. finishing the block *)
  writes : int;  (** acknowledged writes *)
  t0 : float;
  secs : float;
}

(* One client's loop for one window.  Blocks run to their end (so
   counts per statement cover whole blocks), except once [stop] is set
   for a kill: then the statement in flight is cut off by the kill. *)
let client_loop ~deadline ~stop ~traced answers tally ((c : W.client), conn) out () =
  let samples = ref [] and completed = ref 0 and executed = ref 0 and writes = ref 0 in
  let run (op : W.op) =
    if not (Atomic.get stop) then begin
      let t0 = mono () in
      match exec_op answers tally conn op with
      | `Done ok ->
        let t1 = mono () in
        incr executed;
        if t1 <= deadline then incr completed;
        if ok && op.kind <> W.Query then incr writes;
        if t0 < deadline then
          samples :=
            {
              cls = op.cls;
              start = t0;
              text = op.text;
              latency = t1 -. t0;
              trace = (if traced then Client.last_trace_id conn else None);
            }
            :: !samples
      | `Lost e ->
        if Atomic.get stop then
          (* cut off by the kill: neither acknowledged nor failed *)
          match op.kind with
          | W.Insert k | W.Delete k -> locked tally (fun () -> Hashtbl.replace tally.unknown k ())
          | W.Query -> ()
        else begin
          locked tally (fun () -> tally.attempted <- tally.attempted + 1);
          fail tally (Printf.sprintf "%s: %s" (short op.text) (Printexc.to_string e))
        end
    end
  in
  while mono () < deadline && not (Atomic.get stop) do
    List.iter run (c.next_block c.rng);
    if c.think_s > 0. then
      Thread.delay
        (Float.min (Random.State.float c.rng c.think_s) (Float.max 0. (deadline -. mono ())))
  done;
  out := (!samples, !completed, !executed, !writes)

(* ---- fixture ---------------------------------------------------------- *)

type fixture = {
  dir : string;
  db : Db.t;
  srv : Server.t;
  gov : Gov.t;
  conns : (W.client * Client.t) list;
  load_s : float;
  nodes : int;
}

let setup tmp (w : W.t) seed answers tally rep =
  let dir = Filename.concat tmp (Printf.sprintf "db%d" rep) in
  (* the durability ledger follows the store of the latest set-up *)
  List.iter Hashtbl.reset [ tally.acked_ins; tally.acked_del; tally.unknown ];
  let t0 = mono () in
  let db, load_s, nodes = build_store ~frames:w.frames dir w (w.xml seed) in
  let gov = Gov.create () in
  Gov.register_database gov ~name:"main" db;
  let srv = Server.start gov in
  let conns =
    List.map
      (fun c ->
        let conn = Client.connect ~port:(Server.port srv) () in
        ignore (Client.open_db conn "main");
        (c, conn))
      (w.clients seed)
  in
  List.iter
    (fun ((c : W.client), conn) ->
      List.iter
        (fun op ->
          match exec_op answers tally conn op with
          | `Done _ -> ()
          | `Lost e -> fail tally (Printf.sprintf "warm-up %s: %s" (short op.text) (Printexc.to_string e)))
        c.warmup)
    conns;
  (mono () -. t0, { dir; db; srv; gov; conns; load_s; nodes })

let teardown fx =
  List.iter (fun (_, conn) -> try Client.close conn with _ -> ()) fx.conns;
  Server.stop fx.srv;
  rm_rf fx.dir

(* Run every client for [secs].  With [kill], the server is killed at
   the deadline, cutting off whatever is in flight. *)
let run_window fx answers tally ~secs ~traced ~kill =
  Span.set_enabled traced;
  let stop = Atomic.make false in
  let t0 = mono () in
  let deadline = t0 +. secs in
  let outs = List.map (fun _ -> ref ([], 0, 0, 0)) fx.conns in
  let threads =
    List.map2
      (fun cc out ->
        Thread.create (client_loop ~deadline ~stop ~traced answers tally cc out) ())
      fx.conns outs
  in
  if kill then begin
    Thread.delay (Float.max 0. (deadline -. mono ()));
    Atomic.set stop true;
    Server.kill fx.srv
  end;
  List.iter Thread.join threads;
  (* the server publishes a statement's spans just after replying *)
  if traced then Thread.delay 0.05;
  Span.set_enabled false;
  List.fold_left
    (fun w out ->
      let s, c, e, wr = !out in
      {
        w with
        samples = s @ w.samples;
        completed = w.completed + c;
        executed = w.executed + e;
        writes = w.writes + wr;
      })
    { samples = []; completed = 0; executed = 0; writes = 0; t0; secs }
    outs

(* ---- durability audit ------------------------------------------------- *)

(* After kill + crash: every acknowledged insert that was never deleted
   is present, every acknowledged delete is absent, nothing else is
   there, and the store passes the integrity check.  Writes cut off by
   the kill may land either way.  Returns the reopened database. *)
let audit (w : W.t) fx tally =
  Db.crash fx.db;
  let db = Db.open_existing ~buffer_frames:w.frames fx.dir in
  let problems = Sedna_core.Integrity.check_all (Db.store db) in
  List.iter
    (fun (doc, errs) ->
      List.iter (fun e -> fail tally (Printf.sprintf "integrity %s: %s" doc e)) errs)
    problems;
  let s = Sess.connect db in
  let present = Hashtbl.create 64 in
  String.split_on_char ' '
    (Sess.execute_string s
       {|string-join(for $e in doc("lib")/library/side/e return string($e/@k), " ")|})
  |> List.iter (fun k ->
         match int_of_string_opt k with
         | Some k -> Hashtbl.replace present k ()
         | None -> ());
  let checked = ref 0 in
  let check ok msg =
    incr checked;
    if not ok then fail tally msg
  in
  let unknown k = Hashtbl.mem tally.unknown k in
  Hashtbl.iter
    (fun k () ->
      if not (Hashtbl.mem tally.acked_del k || unknown k) then
        check (Hashtbl.mem present k) (Printf.sprintf "acknowledged insert %d lost" k))
    tally.acked_ins;
  Hashtbl.iter
    (fun k () ->
      check (not (Hashtbl.mem present k)) (Printf.sprintf "acknowledged delete %d undone" k))
    tally.acked_del;
  Hashtbl.iter
    (fun k () ->
      check (Hashtbl.mem tally.acked_ins k || unknown k)
        (Printf.sprintf "entry %d present but never acknowledged" k))
    present;
  locked tally (fun () -> tally.attempted <- tally.attempted + !checked);
  pf "  durability audit: %d checks after kill + crash + reopen, %d in flight at the kill, \
      integrity %s\n"
    !checked (Hashtbl.length tally.unknown)
    (if problems = [] then "clean" else "VIOLATED");
  db

(* ---- per-layer measurements ------------------------------------------- *)

let counter_names =
  Counters.
    [
      deref; vas_fast_hit; buffer_hit; buffer_fault; page_reads; page_writes;
      checksum_verify; lock_retry; stmt_lock_restarts; wal_syncs; plan_hit; plan_miss;
    ]

let counters () = List.map (fun n -> (n, Counters.get n)) counter_names

let update_exprs (u : Sedna_xquery.Xq_ast.update_stmt) =
  let open Sedna_xquery.Xq_ast in
  match u with
  | Insert_into (a, b) | Insert_preceding (a, b) | Insert_following (a, b) | Replace (_, a, b) ->
    [ a; b ]
  | Delete a | Delete_undeep a | Rename (a, _) -> [ a ]

(* Parse, static analysis and rewrite of one statement text, each the
   mean of 20 back-to-back calls into the layer's public functions (one
   call is near the clock's microsecond resolution); analysis runs on
   queries only, as in the session. *)
let compile_phases db text =
  let module R = Sedna_xquery.Rewriter in
  let time f =
    fst (Sedna_util.Metrics.time (fun () -> for _ = 1 to 20 do f () done)) /. 20.
  in
  let stmt = Sedna_xquery.Xq_parser.parse_statement text in
  let parse = time (fun () -> ignore (Sedna_xquery.Xq_parser.parse_statement text)) in
  let rewrite prolog e =
    ignore
      (R.rewrite_with ~catalog:(Db.catalog db) R.default_options
         (R.inline_functions prolog.Sedna_xquery.Xq_ast.functions e))
  in
  match stmt with
  | Sedna_xquery.Xq_ast.Query (p, e) ->
    (parse, time (fun () -> ignore (Sedna_xquery.Static.analyse p e)), time (fun () -> rewrite p e))
  | Sedna_xquery.Xq_ast.Update (p, u) ->
    (parse, 0., time (fun () -> List.iter (rewrite p) (update_exprs u)))
  | Sedna_xquery.Xq_ast.Ddl _ -> (parse, 0., 0.)

(* the costliest operator by self time (inclusive time minus children) *)
let rec top_op (op : Sedna_engine.Profiler.op) =
  let kids = List.fold_left (fun a (c : Sedna_engine.Profiler.op) -> a +. c.time_s) 0. op.children in
  List.fold_left
    (fun ((_, best) as acc) c ->
      let ((_, t) as cand) = top_op c in
      if t > best then cand else acc)
    (op.label, Float.max 0. (op.time_s -. kids))
    op.children

(* ---- output ----------------------------------------------------------- *)

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let print_result ~correct ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) unit)
         metrics)
  in
  pf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed m

(* ---- main ------------------------------------------------------------- *)

let latencies cls samples =
  Stats.sorted (List.filter_map (fun s -> if s.cls = cls then Some s.latency else None) samples)

(* ops_per_s and the p50s are medians over [slices] equal slices of
   the window.  A slow stretch of the host (another tenant, a frequency
   change) then moves one or two slices, not the reported value; the
   whole-window figures are printed beside them.  The p99 is taken over
   the whole window, so that a stall confined to one slice shows. *)
let slices = 5

let by_slice (win : window) f =
  let len = win.secs /. float_of_int slices in
  List.init slices (fun k ->
      let a = win.t0 +. (float_of_int k *. len) in
      f ~len (fun t -> t >= a && t < a +. len))
  |> List.filter Float.is_finite |> Stats.median

let slice_ops win =
  by_slice win (fun ~len inside ->
      float_of_int (List.length (List.filter (fun s -> inside (s.start +. s.latency)) win.samples))
      /. len)

let slice_quantile win cls q =
  by_slice win (fun ~len:_ inside ->
      Stats.quantile (latencies cls (List.filter (fun s -> inside s.start) win.samples)) q)

(* sub-windows of one kind taken together *)
let merge = function
  | [] -> invalid_arg "merge"
  | first :: rest ->
    List.fold_left
      (fun a b ->
        {
          a with
          samples = b.samples @ a.samples;
          completed = a.completed + b.completed;
          executed = a.executed + b.executed;
          writes = a.writes + b.writes;
          secs = a.secs +. b.secs;
        })
      first rest

(* ---- the traced sub-windows' per-layer metrics ------------------------ *)

(* [t] is the traced sub-windows merged, [deltas] the global counters
   they moved and [wal_bytes] their WAL growth; [ops_per_s] is the
   untraced sub-windows' rate.  [gov] is [None] once the server was
   killed (the database is then the reopened store). *)
let layer_metrics (w : W.t) fx db gov ~ops_per_s ~load_s (t, deltas, wal_bytes) =
  let under_engine f = match gov with Some g -> Gov.with_engine g f | None -> f () in
  let hname = w.heavy_name in
  let d name = List.assoc name deltas in
  let ops = float_of_int (max 1 t.executed) in
  let per_op name = d name /. ops in
  let commits = float_of_int t.writes in
  let traced_ops_per_s = float_of_int t.completed /. t.secs in
  let stmts cls =
    List.filter_map
      (fun s ->
        if s.cls <> cls then None
        else
          Option.bind s.trace (fun id ->
              Option.bind (Span.find id) (Ledger.of_spans ~latency:s.latency)))
      t.samples
  in
  let rs = stmts W.Read and hs = stmts W.Heavy in
  let all = rs @ hs in
  pf "\n  per-layer ledger (traced sub-windows, %.0f s, self time per statement):\n" t.secs;
  Ledger.render ~title:"read" rs;
  Ledger.render ~title:hname hs;
  let total_lat = Stats.sum (List.map (fun (s : Ledger.stmt) -> s.latency) all) in
  let share name =
    Stats.ratio (Stats.sum (List.map (fun s -> Ledger.self_of s name) all)) total_lat
  in
  let mean f l = Stats.mean (List.map f l) in
  let engine_wait l = List.map (fun s -> Ledger.dur_of s "engine.wait") l in
  List.iter
    (fun (name, l) ->
      let a = Stats.sorted (engine_wait l) in
      pf "  engine.wait %-7s p50 %.4f ms  p99 %.4f ms  (%d samples)\n" name
        (ms (Stats.quantile a 0.5)) (ms (Stats.quantile a 0.99)) (Array.length a))
    [ ("read", rs); (hname, hs) ];
  let plan_hits l =
    let c = List.filter_map (fun (s : Ledger.stmt) -> s.cached) l in
    Stats.ratio (float_of_int (List.length (List.filter Fun.id c))) (float_of_int (List.length c))
  in
  let queue_waits =
    List.filter_map
      (fun (s : Ledger.stmt) ->
        if List.mem_assoc "queue.wait" s.dur then Some (Ledger.dur_of s "queue.wait") else None)
      all
  in
  pf "  queue.wait: %d connections, mean %.4f ms\n" (List.length queue_waits)
    (ms (Stats.mean queue_waits));
  let server_overhead (s : Ledger.stmt) =
    s.latency -. Ledger.dur_of s "statement" -. Ledger.dur_of s "engine.wait"
  in
  (* compile phases on the traced texts (each class weighted by its
     share of the statements), timed here under the engine lock *)
  let texts cls =
    List.filter_map (fun s -> if s.cls = cls then Some s.text else None) t.samples
    |> List.sort_uniq compare
    |> List.filteri (fun i _ -> i < 64)
  in
  let phases =
    under_engine (fun () ->
        List.map
          (fun cls ->
            let n = List.length (List.filter (fun s -> s.cls = cls) t.samples) in
            let ph = List.map (compile_phases db) (texts cls) in
            let m f = Stats.mean (List.map f ph) in
            (float_of_int n, m (fun (p, _, _) -> p), m (fun (_, a, _) -> a), m (fun (_, _, r) -> r)))
          [ W.Read; W.Heavy ])
  in
  let weighted f =
    let n = Stats.sum (List.map (fun (n, _, _, _) -> n) phases) in
    Stats.ratio (Stats.sum (List.map (fun ((n, _, _, _) as p) -> n *. f p) phases)) n
  in
  (* one profile per query shape; the costliest operator overall *)
  let shapes =
    List.concat_map (fun ((c : W.client), _) -> c.warmup) fx.conns
    |> List.filter (fun (o : W.op) -> o.kind = W.Query)
    |> List.sort_uniq (fun (a : W.op) b -> compare a.shape b.shape)
  in
  pf "\n  operator profiles (one Session.profile per query shape):\n";
  let top =
    under_engine (fun () ->
        let s = Sess.connect db in
        List.fold_left
          (fun best (o : W.op) ->
            let p = Sess.profile s o.text in
            let label, self = top_op p.Sess.pp_plan in
            pf "    %-16s execute %9.3f ms; costliest operator %.3f ms self: %s\n" o.shape
              p.Sess.pp_execute_ms (ms self) (short label);
            Float.max best (ms self))
          0. shapes)
  in
  let unattributed = Stats.ratio (Stats.sum (List.map Ledger.unattributed all)) total_lat in
  let overhead_pct = 100. *. Stats.ratio (ops_per_s -. traced_ops_per_s) ops_per_s in
  pf "\n  trace: %d of %d traced statements joined; unattributed %.2f %%; traced %.2f ops/s \
      against %.2f untraced in alternating sub-windows (overhead %.2f %%)\n"
    (List.length all) (List.length t.samples) (100. *. unattributed) traced_ops_per_s
    ops_per_s overhead_pct;
  [
    ("server.overhead_ms", "ms", ms (mean server_overhead all));
    ("governor.engine_wait_ms.read", "ms", ms (Stats.mean (engine_wait rs)));
    ("governor.engine_wait_ms.heavy", "ms", ms (Stats.mean (engine_wait hs)));
    ("governor.engine_wait_share", "ratio", share "engine.wait");
    ("session.plan_hit_ratio", "ratio", Stats.ratio (d Counters.plan_hit) (d Counters.plan_hit +. d Counters.plan_miss));
    ("session.plan_hit_ratio.read", "ratio", plan_hits rs);
    ("session.plan_hit_ratio.heavy", "ratio", plan_hits hs);
    ("xquery.parse_ms", "ms", ms (weighted (fun (_, p, _, _) -> p)));
    ("xquery.analyse_ms", "ms", ms (weighted (fun (_, _, a, _) -> a)));
    ("xquery.rewrite_ms", "ms", ms (weighted (fun (_, _, _, r) -> r)));
    ("xquery.compile_span_ms", "ms", ms (mean (fun s -> Ledger.dur_of s "compile") all));
    ("executor.eval_ms.read", "ms", ms (mean (fun s -> Ledger.dur_of s "eval") rs));
    ("executor.eval_ms.heavy", "ms", ms (mean (fun s -> Ledger.dur_of s "eval") hs));
    ("executor.top_operator_ms", "ms", top);
    ("buffer.derefs_per_op", "count", per_op Counters.deref);
    ( "buffer.hit_ratio", "ratio",
      Stats.ratio (d Counters.vas_fast_hit +. d Counters.buffer_hit) (d Counters.deref) );
    ("buffer.vas_fast_ratio", "ratio", Stats.ratio (d Counters.vas_fast_hit) (d Counters.deref));
    ("buffer.faults_per_op", "count", per_op Counters.buffer_fault);
    ("disk.reads_per_op", "count", per_op Counters.page_reads);
    ("disk.writes_per_op", "count", per_op Counters.page_writes);
    ("checksum.verifies_per_op", "count", per_op Counters.checksum_verify);
    ("lock.wait_share", "ratio", share "lock.wait");
    ("lock.retries_per_op", "count", per_op Counters.lock_retry);
    ("stmt.lock_restarts_per_op", "count", per_op Counters.stmt_lock_restarts);
    ("wal.bytes_per_commit", "bytes", Stats.ratio (float_of_int wal_bytes) commits);
    ("wal.syncs_per_commit", "ratio", Stats.ratio (d Counters.wal_syncs) commits);
    ("commit.fsync_share", "ratio", share "commit.fsync");
    ("commit.park_share", "ratio", share "commit.park");
    ("loader.s", "s", load_s);
    ("loader.nodes_per_s", "1/s", float_of_int fx.nodes /. load_s);
    ("trace.unattributed_share", "ratio", unattributed);
    ("trace.overhead_pct", "%", overhead_pct);
  ]

let () =
  let w, seed, secs, trace = parse_args () in
  Span.set_enabled false;
  let tmp = Filename.concat (Sys.getcwd ()) (Printf.sprintf ".perfbench-tmp/%d" (Unix.getpid ())) in
  rm_rf tmp;
  List.iter
    (fun d -> try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    [ Filename.dirname tmp; tmp ];
  Fun.protect
    ~finally:(fun () ->
      rm_rf tmp;
      try Unix.rmdir (Filename.dirname tmp) with Unix.Unix_error _ -> ())
  @@ fun () ->
  pf "perfbench %s  seed %d  %.0f s  trace %d\n" w.name seed secs (if trace then 1 else 0);
  pf "  context: nproc %d, host fsync (4 KiB write+fsync, median of 20) %.3f ms\n"
    (Domain.recommended_domain_count ()) (fsync_ms tmp);
  List.iter (pf "  %s\n") w.notes;
  let answers = reference_answers tmp w seed in
  let tally = new_tally () in
  (* set up [setup_reps] times; keep the last *)
  let setups =
    List.init setup_reps (fun rep ->
        let t, fx = setup tmp w seed answers tally rep in
        if rep < setup_reps - 1 then teardown fx;
        (t, fx))
  in
  let fx = snd (List.nth setups (setup_reps - 1)) in
  let setup_s = Stats.median (List.map fst setups) in
  let load_s = Stats.median (List.map (fun (_, f) -> f.load_s) setups) in
  let pages = Sedna_core.File_store.page_count (Sedna_core.Buffer_mgr.store (Db.buffer fx.db)) in
  pf "  document: %d nodes, %d pages; pool %d frames (%.1fx the document)\n" fx.nodes pages
    w.frames (float_of_int w.frames /. float_of_int pages);
  pf "  setup: median %.4f s of %d (load %.4f s)\n" setup_s setup_reps load_s;
  let kill = w.durability_audit in
  let measure = run_window fx answers tally in
  let plain, traced =
    if not trace then (measure ~secs ~traced:false ~kill, None)
    else begin
      Span.clear ();
      Span.set_capacity 1_000_000;
      (* pair k runs its untraced sub-window first when k + seed is
         even, so drift of the host over the run falls on both kinds
         alike *)
      let n = 2 * trace_pairs in
      let runs =
        List.init n (fun i ->
            let untraced_first = ((i / 2) + seed) land 1 = 0 in
            let traced = untraced_first = (i land 1 = 1) in
            let c0 = counters () and wal0 = Sedna_core.Wal.size (Db.wal fx.db) in
            let win =
              measure ~secs:(secs /. float_of_int n) ~traced ~kill:(kill && i = n - 1)
            in
            let c1 = counters () and wal1 = Sedna_core.Wal.size (Db.wal fx.db) in
            (traced, win, List.map2 (fun (_, a) (_, b) -> float_of_int (b - a)) c0 c1, wal1 - wal0))
      in
      let kind k = List.filter (fun (t, _, _, _) -> t = k) runs in
      let wins k = merge (List.map (fun (_, w, _, _) -> w) (kind k)) in
      let deltas =
        List.fold_left
          (fun acc (_, _, d, _) -> List.map2 ( +. ) acc d)
          (List.map (fun _ -> 0.) counter_names)
          (kind true)
      in
      let wal_bytes = List.fold_left (fun acc (_, _, _, b) -> acc + b) 0 (kind true) in
      (wins false, Some (wins true, List.combine counter_names deltas, wal_bytes))
    end
  in
  (* after the windows: the live database (or, after a kill, the
     reopened one) answers the remaining questions.  The store is
     checkpointed before it is measured, so that the log the window
     wrote (reported per commit as wal.bytes_per_commit) does not
     count as its footprint. *)
  let db = if kill then audit w fx tally else fx.db in
  let stored, user_bytes =
    (if kill then fun f -> f () else Gov.with_engine fx.gov) (fun () ->
        Db.checkpoint db;
        ( store_bytes fx.dir,
          String.length
            (Sess.execute_string (Sess.connect db) (Printf.sprintf {|doc("%s")|} w.doc)) ))
  in
  let window_ops = float_of_int plain.completed /. plain.secs in
  let read = latencies W.Read plain.samples and heavy = latencies W.Heavy plain.samples in
  let hname = w.heavy_name in
  pf "  %s %.0f s: %d statements answered, %.2f ops/s\n"
    (if trace then "untraced sub-windows" else "window")
    plain.secs plain.completed window_ops;
  let ops_per_s = if trace then window_ops else slice_ops plain in
  let sq = slice_quantile plain in
  if not trace then
    pf "  median of %d slices: %.2f ops/s; read p50 %.4f ms; %s p50 %.4f ms\n" slices ops_per_s
      (ms (sq W.Read 0.5)) hname (ms (sq W.Heavy 0.5));
  pf "  read  (%5d samples): p50 %.4f ms  p99 %.4f ms%s\n" (Array.length read)
    (ms (Stats.quantile read 0.5)) (ms (Stats.quantile read 0.99))
    (if Array.length read < 1000 then "  (p99 on fewer than 1000 samples)" else "");
  pf "  %-5s (%5d samples): p50 %.4f ms  p99 %.4f ms%s\n" hname (Array.length heavy)
    (ms (Stats.quantile heavy 0.5)) (ms (Stats.quantile heavy 0.99))
    (if Array.length heavy < 1000 then "  (p99 on fewer than 1000 samples)" else "");
  let bytes_ratio = float_of_int stored /. float_of_int user_bytes in
  pf "  storage after checkpoint: %d bytes (data + checksums + WAL) for %d bytes of documents\n"
    stored user_bytes;
  let metrics =
    match traced with
    | None ->
      [
        ("setup_s", "s", setup_s);
        ("ops_per_s", "1/s", ops_per_s);
        ("read_p50_ms", "ms", ms (sq W.Read 0.5));
        ("read_p99_ms", "ms", ms (Stats.quantile read 0.99));
        ("heavy_p50_ms", "ms", ms (sq W.Heavy 0.5));
        ("bytes_per_user_byte", "ratio", bytes_ratio);
        ("peak_rss_mb", "MiB", peak_rss_mb ());
      ]
    | Some traced ->
      layer_metrics w fx db (if kill then None else Some fx.gov) ~ops_per_s ~load_s traced
  in
  (* release the database: the server (or, after a kill, the reopened
     store) *)
  if kill then begin
    List.iter (fun (_, conn) -> try Client.close conn with _ -> ()) fx.conns;
    Db.close db
  end
  else teardown fx;
  let attempted = max 1 tally.attempted and failed = tally.failed in
  List.iter (pf "  FAILURE: %s\n") (List.rev tally.errors);
  pf "  failed_ratio %.6f (%d of %d)\n" (Stats.ratio (float_of_int failed) (float_of_int attempted))
    failed attempted;
  print_result ~correct:(failed = 0) ~attempted ~failed metrics
