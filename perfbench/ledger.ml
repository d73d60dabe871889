(* The traced run's per-layer ledger.  The benchmark times each of its
   own calls into the client ([Server_client.execute]); the server
   emits spans under the trace id of that call.  Joining the two splits
   every client round trip into per-span self time — a span's duration
   minus the part its child spans cover — so the rows of one statement
   add up to the latency the client saw, plus an explicit remainder
   that no span covers. *)

module Span = Sedna_util.Span

(* span name -> layer, in the order the table prints them *)
let layers =
  [
    ("client.request", "server");
    ("queue.wait", "server");
    ("server.execute", "server");
    ("server.fetch", "server");
    ("engine.wait", "governor");
    ("statement", "session");
    ("compile", "xquery");
    ("lock.wait", "lock_mgr");
    ("eval", "executor");
    ("commit.fsync", "wal");
    ("commit.park", "wal");
  ]

let layer_of name = Option.value (List.assoc_opt name layers) ~default:"other"

(* one traced statement: its client latency and per-span self times *)
type stmt = {
  latency : float;  (** seconds, timed by the benchmark around the call *)
  self : (string * float) list;  (** span name -> self seconds, summed *)
  dur : (string * float) list;  (** span name -> duration seconds, summed *)
  cached : bool option;  (** the compile span's plan-cache annotation *)
}

let covered s = List.fold_left (fun acc (_, v) -> acc +. v) 0. s.self
let unattributed s = Float.max 0. (s.latency -. covered s)
let self_of s name = Option.value (List.assoc_opt name s.self) ~default:0.
let dur_of s name = Option.value (List.assoc_opt name s.dur) ~default:0.

let add name v l =
  match List.assoc_opt name l with
  | Some x -> (name, x +. v) :: List.remove_assoc name l
  | None -> (name, v) :: l

(* [None] when the trace is incomplete (no server-side statement span) *)
let of_spans ~latency (spans : Span.span list) : stmt option =
  if not (List.exists (fun sp -> sp.Span.sp_name = "statement") spans) then None
  else
    let child_time = Hashtbl.create 16 in
    List.iter
      (fun sp ->
        let d = Float.max 0. sp.Span.sp_dur in
        Hashtbl.replace child_time sp.Span.sp_parent
          (d +. Option.value (Hashtbl.find_opt child_time sp.Span.sp_parent) ~default:0.))
      spans;
    let self, dur =
      List.fold_left
        (fun (self, dur) sp ->
          let d = Float.max 0. sp.Span.sp_dur in
          let kids = Option.value (Hashtbl.find_opt child_time sp.Span.sp_id) ~default:0. in
          (add sp.Span.sp_name (Float.max 0. (d -. kids)) self, add sp.Span.sp_name d dur))
        ([], []) spans
    in
    let cached =
      List.find_map
        (fun sp ->
          if sp.Span.sp_name <> "compile" then None
          else
            match List.assoc_opt "cached" sp.Span.sp_annots with
            | Some (Sedna_util.Metrics.Bool b) -> Some b
            | _ -> None)
        spans
    in
    Some { latency; self; dur; cached }

(* Per-class table: mean self time per statement by span, grouped by
   layer, then the unattributed remainder; the rows sum to the mean
   client latency. *)
let render ~title (stmts : stmt list) =
  let n = float_of_int (max 1 (List.length stmts)) in
  let lat = Stats.sum (List.map (fun s -> s.latency) stmts) /. n in
  let row label v =
    Printf.printf "    %-28s %10.4f ms %6.1f %%\n" label (v *. 1000.)
      (100. *. Stats.ratio v lat)
  in
  Printf.printf "  %s: %d traced statements, mean client latency %.4f ms\n" title
    (List.length stmts) (lat *. 1000.);
  List.iter
    (fun (name, layer) ->
      let v = Stats.sum (List.map (fun s -> self_of s name) stmts) /. n in
      if v > 0. then row (Printf.sprintf "%-9s %s" layer name) v)
    layers;
  let other =
    Stats.sum
      (List.map
         (fun s ->
           Stats.sum
             (List.filter_map
                (fun (k, v) -> if List.mem_assoc k layers then None else Some v)
                s.self))
         stmts)
    /. n
  in
  if other > 0. then row "other     (unnamed spans)" other;
  row "unattributed" (Stats.sum (List.map unattributed stmts) /. n);
  row "total" lat
