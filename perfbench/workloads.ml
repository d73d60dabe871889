(* The three workloads.  Each is a closed loop: a client sends its next
   statement only after the previous one answered, because a Sedna
   session has exactly one statement in flight.  Statements come in
   seeded blocks with fixed class proportions, so a run's mix — and
   with it the median of each class — does not drift with the seed.

   Two statement classes per workload keep every percentile inside one
   cost band: "read" (the workload's cheap reads) and a heavy class —
   the E1 Q5 value join on xmark-read, the auto-commit writes on
   mixed-rw and whole-book reconstruction on library-cold. *)

type cls = Read | Heavy

type kind =
  | Query  (** result compared with the answer computed at set-up *)
  | Insert of int  (** side entry [k] inserted: must answer Updated 1 *)
  | Delete of int  (** side entry [k] deleted: must answer Updated 1 *)

type op = { text : string; cls : cls; shape : string; kind : kind }

type client = {
  rng : Random.State.t;
  warmup : op list;  (** fixed: every distinct read text once, plan caches warm *)
  next_block : Random.State.t -> op list;
  think_s : float;
      (** after each block the client pauses for a seeded uniform time in
          [0, think_s]: still a closed loop, but the phases of the two
          clients stop locking together, so every run samples the same
          mix of collisions *)
}

type t = {
  name : string;
  heavy_name : string;  (** what the heavy class is on this workload *)
  doc : string;
  frames : int;  (** buffer pool the server runs with *)
  xml : int -> string;  (** the document, from the workload seed *)
  setup_statements : string list;  (** run after the load: indexes, side subtree *)
  clients : int -> client list;  (** from the workload seed *)
  durability_audit : bool;  (** end with kill + crash, reopen and audit *)
  notes : string list;
}

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let pick rng a = a.(Random.State.int rng (Array.length a))

let query cls shape text = { text; cls; shape; kind = Query }

(* distinct read texts of a client: its warm-up *)
let distinct ops =
  List.sort_uniq compare (List.map (fun o -> o.text) ops)
  |> List.map (fun t -> List.find (fun o -> o.text = t) ops)

(* ---- xmark-read: E1 shapes over the auction document ----------------- *)

(* the six non-join E1 shapes plus Q5, with the parameter values each
   shape takes; a small fixed set of texts, so compile is fully
   plan-cached after the warm-up *)
let xmark_ops =
  let q1 = query Read "Q1 child path" {|count(doc("a")/site/regions/namerica/item)|} in
  let q2 = query Read "Q2 descendants" {|count(doc("a")//listitem)|} in
  let q3 =
    Array.init 4 (fun i ->
        query Read "Q3 predicate"
          (Printf.sprintf {|count(doc("a")//item[quantity > %d])|} (i + 1)))
  in
  let q4 =
    Array.init 3 (fun i ->
        query Read "Q4 flwor+sort"
          (Printf.sprintf
             {|for $x in doc("a")/site/open_auctions/open_auction let $n := count($x/bidder) where $n > %d order by $n descending return string($x/@id)|}
             (i + 2)))
  in
  let q5 =
    query Heavy "Q5 join"
      {|count(for $a in doc("a")/site/open_auctions/open_auction for $i in doc("a")//item[@id = string($a/itemref)] return $i)|}
  in
  let q6 =
    query Read "Q6 construct"
      {|<out>{for $p in doc("a")/site/people/person[address] return <e c="{string($p/address/city)}"/>}</out>|}
  in
  let q7 = query Read "Q7 aggregation" {|sum(doc("a")//increase)|} in
  (q1, q2, q3, q4, q5, q6, q7)

(* One block = 31 statements: the join once, and thirty reads weighted
   so that the read median falls inside the Q7 cost band rather than
   on the boundary between two shapes.  The join takes most of the
   engine's time, so it sets the rate; thirty reads per join keep more
   than 1 000 reads in a 30 s window even on a slow host. *)
let xmark_block rng =
  let q1, q2, q3, q4, q5, q6, q7 = xmark_ops in
  let times n q = List.init n (fun _ -> q) in
  shuffle rng
    ((q5 :: times 4 q1)
    @ times 4 q2 @ times 4 q6
    @ List.init 4 (fun _ -> pick rng q3)
    @ List.init 4 (fun _ -> pick rng q4)
    @ times 10 q7)

let xmark_read =
  {
    name = "xmark-read";
    heavy_name = "join";
    doc = "a";
    frames = 1024;
    xml =
      (fun seed ->
        Sedna_workloads.Generators.(
          to_xml_string (auction ~seed ~items:250 ~people:200 ~auctions:120 ())));
    setup_statements = [];
    clients =
      (fun seed ->
        let q1, q2, q3, q4, q5, q6, q7 = xmark_ops in
        let all = [ q1; q2; q5; q6; q7 ] @ Array.to_list q3 @ Array.to_list q4 in
        List.init 2 (fun i ->
            {
              rng = Random.State.make [| seed; i |];
              warmup = distinct all;
              next_block = xmark_block;
              think_s = 0.25;
            }));
    durability_audit = false;
    notes =
      [
        "2 reader connections; 1 block = 30 non-join E1 reads + 1 Q5 join";
        "read-only: WAL, lock manager and disk idle; compile plan-cached";
      ];
  }

(* ---- mixed-rw: one writer, one reader on a 2 000-book library -------- *)

let side_live = 16

let mixed_rw =
  {
    name = "mixed-rw";
    heavy_name = "write";
    doc = "lib";
    frames = 1024;
    xml =
      (fun seed ->
        Sedna_workloads.Generators.(to_xml_string (library ~seed ~books:2000 ())));
    setup_statements =
      [
        {|CREATE INDEX "price" ON doc("lib")/library/book BY price AS xs:integer|};
        {|CREATE INDEX "year" ON doc("lib")/library/book BY @year AS xs:string|};
        {|UPDATE insert <side/> into doc("lib")/library|};
      ];
    clients =
      (fun seed ->
        let rng = Random.State.make [| seed; 100 |] in
        (* 8 count reads and 8 point reads, all answered by index
           probes; each year has exactly 40 books.  The point read
           parenthesizes the probe: in book[@year = Y][K] the positional
           step keeps rule 7 from choosing the index, and the read would
           fall in a ~20x costlier band than the count read. *)
        let reads =
          List.init 8 (fun _ ->
              query Read "count by price"
                (Printf.sprintf {|count(doc("lib")/library/book[price = %d])|}
                   (10 + Random.State.int rng 90)))
          @ List.init 8 (fun _ ->
                query Read "point by year"
                  (Printf.sprintf
                     {|string((doc("lib")/library/book[@year = "%d"])[%d]/title)|}
                     (1970 + Random.State.int rng 50)
                     (1 + Random.State.int rng 40)))
        in
        let words = [| "alpha"; "beta"; "gamma"; "delta"; "omega"; "sigma" |] in
        (* the writer keeps [side_live] entries: each block deletes the
           oldest and inserts a fresh one, so the document size stays
           steady; every key is new, so every write text differs *)
        let next_key = ref 0 in
        let live = Queue.create () in
        let insert rng =
          incr next_key;
          Queue.push !next_key live;
          {
            text =
              Printf.sprintf {|UPDATE insert <e k="%d" v="%s"/> into doc("lib")/library/side|}
                !next_key (pick rng words);
            cls = Heavy;
            shape = "insert";
            kind = Insert !next_key;
          }
        in
        let delete () =
          let k = Queue.pop live in
          {
            text = Printf.sprintf {|UPDATE delete doc("lib")/library/side/e[@k = "%d"]|} k;
            cls = Heavy;
            shape = "delete";
            kind = Delete k;
          }
        in
        let wrng = Random.State.make [| seed; 1 |] in
        [
          {
            rng = wrng;
            warmup = List.init side_live (fun _ -> insert wrng);
            next_block =
              (fun rng ->
                let d = delete () in
                [ d; insert rng ]);
            think_s = 0.05;
          };
          {
            rng = Random.State.make [| seed; 2 |];
            warmup = distinct reads;
            next_block = (fun rng -> shuffle rng reads);
            think_s = 0.;
          };
        ]);
    durability_audit = true;
    notes =
      [
        "1 writer + 1 reader connection; writes auto-commit into a 16-entry side subtree";
        "flush policy: group commit on (the default); every ack waits for an fsync covering its commit";
      ];
  }

(* ---- library-cold: E7b scans through a 64-frame pool ----------------- *)

let library_cold =
  {
    name = "library-cold";
    heavy_name = "rebuild";
    doc = "lib";
    frames = 64;
    xml =
      (fun seed ->
        Sedna_workloads.Generators.(to_xml_string (library ~seed ~books:4000 ())));
    setup_statements = [];
    clients =
      (fun seed ->
        let author = query Read "//author" {|count(doc("lib")//author)|} in
        let title = query Read "//title" {|count(doc("lib")//title)|} in
        let rebuild =
          query Heavy "rebuild books"
            (Printf.sprintf {|doc("lib")/library/book[@year = "%d"]|}
               (1970 + Random.State.int (Random.State.make [| seed; 200 |]) 50))
        in
        (* A fixed block: every block then starts from the same pool
           state, so page counts per block — and per statement over
           whole blocks — repeat exactly.  Weights 4:2 keep the read
           median inside the //author band. *)
        let block = [ author; title; author; author; title; author; rebuild ] in
        [
          {
            rng = Random.State.make [| seed; 3 |];
            warmup = block;
            next_block = (fun _ -> block);
            think_s = 0.;
          };
        ]);
    durability_audit = false;
    notes =
      [
        "1 connection; every statement scans a path larger than the pool";
        "one client and no timers: page counts per statement repeat exactly";
      ];
  }

let all = [ xmark_read; mixed_rw; library_cold ]
let find name = List.find_opt (fun w -> w.name = name) all
