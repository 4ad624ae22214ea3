(* The measuring half of the end-to-end benchmark.

   [bench.exe WORKLOAD --seed S --seconds T --work DIR [--trace FILE]
   [--dlearn EXE]] runs one workload against the dlearn libraries (and,
   for serve-walmart, against a [dlearn serve] process driven over its
   Unix socket), times its calls into each layer's public functions,
   checks the outputs against computations made apart from the timed
   path, and prints the raw samples as one JSON object on its last
   stdout line. [run.py] builds this program, turns the samples into the
   benchmark's metrics and computes self times from the trace.

   Without [--trace] it runs the timed loop for [--seconds]. With
   [--trace FILE] it runs a fixed number of rounds untraced, then the
   same rounds with Obs recording on, writes the Chrome trace to FILE and
   reports both walls and both definition digests: tracing must not
   change what is learned. *)

open Dlearn_relation
open Dlearn_core
open Dlearn_eval
module Obs = Dlearn_obs.Obs
module Json = Dlearn_serve.Json
module Sim = Dlearn_similarity.Sim_index

(* ------------------------------------------------------------------ *)
(* Workload sizes. Found by measuring on a 2-core box: each keeps one
   round of the workload's long operation in the seconds range so that a
   run holds several rounds. *)

let imdb_n = 60 (* movies in the IMDB+OMDB database *)
let imdb_train_folds = 4 (* train on one quarter, hold out the rest *)
let imdb_split_seed = 1
let walmart_n = 40 (* products in the Walmart+Amazon database *)
let scale_tuples = 50_000 (* rows per catalog side: 10^5 tuples *)
let topk_queries = 10 (* queries per round *)
let topk_checked = 4 (* queries re-done by brute force *)
let setup_repeats = 3
let learn_setup_repeats = 201 (* generation takes under a millisecond *)
let traced_rounds_serve = 3

(* ------------------------------------------------------------------ *)
(* Plumbing. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

let failures = ref []
let check ok msg = if not ok then failures := msg :: !failures

let digest_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))
let definition_lines d = List.map Dlearn_logic.Clause.to_string d.Dlearn_logic.Definition.clauses

let floats xs = Json.List (List.map (fun x -> Json.Float x) xs)
let strings xs = Json.List (List.map (fun s -> Json.String s) xs)

let peak_rss_mb () =
  match Obs.peak_rss_kb () with
  | Some kb -> float_of_int kb /. 1024.
  | None -> nan

(* VmHWM of another process, from /proc/<pid>/status. *)
let peak_rss_mb_of pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* Run [round] until [seconds] have passed, at least once; whole rounds
   only, so every run attempts the same mix of operations. *)
let rounds_for ~seconds round =
  let t0 = now () in
  let rec go i = if i = 0 || now () -. t0 < seconds then (round i; go (i + 1)) else i in
  go 0

(* Switch Obs recording on for [f], write the trace to [file]. *)
let traced file f =
  Obs.reset ();
  Obs.set_metrics true;
  Obs.start_recording ();
  let r = f () in
  Obs.stop_recording ();
  Obs.write_trace file;
  Obs.set_metrics false;
  r

let counters_json () = Json.of_string (Obs.report_json ())

(* ------------------------------------------------------------------ *)
(* learn-imdb3: cold Learner.learn runs on a fixed training split of
   IMDB+OMDB (three MDs), then classification of the held-out split, in
   a seed-drawn order, with Learner.predictor. *)

type learn_inputs = {
  w : Workload.t;
  train_pos : Tuple.t list;
  train_neg : Tuple.t list;
  held : (Tuple.t * bool) list;  (** example, label *)
}

let learn_inputs ~seed =
  let w = Experiment.with_jobs (Imdb_omdb.generate ~n:imdb_n `Three_mds) 1 in
  let fold =
    List.hd
      (Cross_validation.folds ~k:imdb_train_folds ~seed:imdb_split_seed
         ~pos:w.Workload.pos ~neg:w.Workload.neg)
  in
  (* The split is fixed, so every seed learns the same definition; the
     seed draws the order in which the held-out examples are classified. *)
  let held =
    List.map (fun e -> (e, true)) fold.Cross_validation.train_pos
    @ List.map (fun e -> (e, false)) fold.Cross_validation.train_neg
  in
  let rng = Random.State.make [| seed; 0x1EA |] in
  let held = Workload.sample rng (List.length held) held in
  {
    w;
    train_pos = fold.Cross_validation.test_pos;
    train_neg = fold.Cross_validation.test_neg;
    held;
  }

let fresh_context (w : Workload.t) =
  Context.create w.Workload.config w.Workload.db w.Workload.mds w.Workload.cfds

type learn_round = { learn_s : float; result : Learner.result }

let learn_round inp =
  (* The previous round's context is garbage: compacting it away keeps the
     peak resident set and the collector's work the same in every round,
     however many rounds a run holds. *)
  Obs.span "bench.runtime.compact" Gc.compact;
  let ctx = fresh_context inp.w in
  let learn_s, result =
    timed (fun () ->
        Obs.span "bench.core.learn" (fun () ->
            Learner.learn ctx ~pos:inp.train_pos ~neg:inp.train_neg))
  in
  ({ learn_s; result }, ctx)

(* Classify every held-out example with the round's definition, on the
   context it was learned on; per-example latencies in ms, and verdicts. *)
let classify inp ctx r =
  let predict =
    Obs.span "bench.core.predictor" (fun () ->
        Learner.predictor ctx r.result.Learner.definition)
  in
  let timings =
    List.map
      (fun (e, _) ->
        timed (fun () -> Obs.span "bench.core.classify" (fun () -> predict e)))
      inp.held
  in
  (List.map (fun (s, _) -> s *. 1e3) timings, List.map snd timings)

(* Checks made apart from the timed path: F1 from the labels, the
   held-out verdicts on a fresh context under the backtrack engine, and
   every accepted clause's counts on the training split with incremental
   coverage off. *)
let check_learn inp r verdicts =
  let tp, fp, fn =
    List.fold_left2
      (fun (tp, fp, fn) (_, label) v ->
        match (label, v) with
        | true, true -> (tp + 1, fp, fn)
        | false, true -> (tp, fp + 1, fn)
        | true, false -> (tp, fp, fn + 1)
        | false, false -> (tp, fp, fn))
      (0, 0, 0) inp.held verdicts
  in
  let f1 =
    if tp = 0 then 0.
    else
      let p = float tp /. float (tp + fp) and rc = float tp /. float (tp + fn) in
      2. *. p *. rc /. (p +. rc)
  in
  let def = r.result.Learner.definition in
  let bt = Experiment.with_subsumption inp.w `Backtrack in
  let bt_ctx = fresh_context bt in
  let bt_predict = Learner.predictor bt_ctx def in
  let bt_verdicts = List.map (fun (e, _) -> bt_predict e) inp.held in
  check (bt_verdicts = verdicts)
    "learn-imdb3: held-out verdicts differ between the default and backtrack engines";
  let plain = Experiment.with_incremental inp.w false in
  let plain_ctx = fresh_context plain in
  let cfg = inp.w.Workload.config in
  List.iter
    (fun (s : Learner.clause_stats) ->
      let prepared = Coverage.prepare plain_ctx s.Learner.clause in
      let p, n =
        Coverage.coverage plain_ctx prepared ~pos:inp.train_pos ~neg:inp.train_neg
      in
      let text = Dlearn_logic.Clause.to_string s.Learner.clause in
      check
        (p = s.Learner.pos_covered && n = s.Learner.neg_covered)
        (Printf.sprintf "learn-imdb3: recount %d+/%d- differs from %d+/%d- for %s" p n
           s.Learner.pos_covered s.Learner.neg_covered text);
      check
        (p >= cfg.Config.min_pos
        && float p /. float (max 1 (p + n)) >= cfg.Config.min_precision)
        (Printf.sprintf "learn-imdb3: accepted clause misses min_pos/min_precision: %s"
           text))
    r.result.Learner.stats;
  f1

let run_learn ~seed ~seconds ~trace =
  (* Only the last set-up's inputs are kept: earlier ones left live would
     grow the heap every learn runs in. *)
  let inp = ref None in
  let setups =
    List.init learn_setup_repeats (fun _ ->
        inp := None;
        Gc.full_major ();
        let t, i =
          timed (fun () ->
              Obs.span "bench.eval.generate" (fun () ->
                  let inp = learn_inputs ~seed in
                  ignore (fresh_context inp.w);
                  inp))
        in
        inp := Some i;
        t)
  in
  let inp = Option.get !inp in
  let config_text = Format.asprintf "%a" Config.pp inp.w.Workload.config in
  (* Rounds are learns; the last round's definition then classifies the
     held-out split once. *)
  let summary rounds (classify_ms, verdicts) extra =
    let last = List.hd (List.rev rounds) in
    let f1 = check_learn inp last verdicts in
    let digests =
      List.sort_uniq String.compare
        (List.map (fun r -> digest_lines (definition_lines r.result.Learner.definition)) rounds)
    in
    check (List.length digests = 1) "learn-imdb3: rounds learned different definitions";
    Json.Obj
      ([
         ("config", Json.String config_text);
         ( "sizes",
           Json.String
             (Printf.sprintf "n=%d train=%d+/%d- held=%d" imdb_n
                (List.length inp.train_pos) (List.length inp.train_neg)
                (List.length inp.held)) );
         ("setup_s", floats setups);
         ("slow_op_s", floats (List.map (fun r -> r.learn_s) rounds));
         ("fast_op_ms", floats classify_ms);
         ("f1", Json.Float f1);
         ("digests", strings digests);
         ("definition", strings (definition_lines last.result.Learner.definition));
         ("attempted", Json.Int (List.length rounds + List.length inp.held));
         ("failed", Json.Int 0);
         ("peak_rss_mb", Json.Float (peak_rss_mb ()));
       ]
      @ extra)
  in
  match trace with
  | None ->
      (* Only the last round's context is kept: it classifies. *)
      let rounds = ref [] and last_ctx = ref None in
      ignore
        (rounds_for ~seconds (fun _ ->
             last_ctx := None;
             let r, ctx = learn_round inp in
             rounds := r :: !rounds;
             last_ctx := Some ctx));
      summary (List.rev !rounds) (classify inp (Option.get !last_ctx) (List.hd !rounds)) []
  | Some file ->
      let phase () =
        let r, ctx = learn_round inp in
        (r, classify inp ctx r)
      in
      let plain_s, (plain, _) = timed phase in
      let traced_s, ((traced_round, classified), counters) =
        timed (fun () ->
            traced file (fun () ->
                let r = phase () in
                (r, counters_json ())))
      in
      let d r = digest_lines (definition_lines r.result.Learner.definition) in
      summary [ plain; traced_round ] classified
        [
          ( "trace",
            Json.Obj
              [
                ("untraced_wall_s", Json.Float plain_s);
                ("traced_wall_s", Json.Float traced_s);
                ("untraced_digest", Json.String (d plain));
                ("traced_digest", Json.String (d traced_round));
                ("counters", counters);
              ] );
        ]

(* ------------------------------------------------------------------ *)
(* topk-scale: Scale_gen writes a dirty catalog; the benchmark streams
   and loads it, builds a Sim_index over the marketplace titles and sends
   a fixed set of supplier titles as top-k queries. *)

let topk_km = (Config.default ~target:(Schema.string_attrs "t" [ "x" ])).Config.km

(* The title MD's threshold on Walmart+Amazon, the catalog this scales. *)
let topk_threshold = 0.7
let topk_measure = Dlearn_constraints.Md.default_sim.Dlearn_constraints.Md.measure

type catalog = {
  summary : Scale_gen.summary;
  scan_s : float;
  streamed : (string * int) list;
  load_s : float;
  db : Database.t;
}

let titles db rel =
  Relation.distinct_values (Database.find db rel) Scale_gen.title_pos
  |> List.filter_map (fun v ->
         if Value.is_null v then None else Some (Value.as_string v))

let make_catalog ~seed dir =
  let summary =
    Obs.span "bench.eval.scale_gen" (fun () ->
        Scale_gen.generate
          ~config:{ Scale_gen.default with Scale_gen.tuples = scale_tuples; seed }
          dir)
  in
  let scan_s, streamed =
    timed (fun () ->
        List.map
          (fun name ->
            ( name,
              Obs.span "bench.relation.scan" (fun () ->
                  Storage.scan dir name ~init:0 ~f:(fun acc _ -> acc + 1)) ))
          [ Scale_gen.src_name; Scale_gen.dst_name ])
  in
  let load_s, db =
    timed (fun () -> Obs.span "bench.relation.load" (fun () -> Storage.load dir))
  in
  { summary; scan_s; streamed; load_s; db }

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let brute_topk values q =
  List.filter_map
    (fun v ->
      let s = Dlearn_similarity.Combined.similarity ~measure:topk_measure q v in
      if s >= topk_threshold then Some (v, s) else None)
    values
  |> List.sort (fun (a, x) (b, y) ->
         match Float.compare y x with 0 -> String.compare a b | c -> c)
  |> List.filteri (fun i _ -> i < topk_km)

let run_topk ~seed ~seconds ~trace ~work =
  let dir = Filename.concat work (Printf.sprintf "scale-%d" seed) in
  (* The query set is fixed: supplier titles of a small reference catalog
     drawn from the same value universe, so every seed's catalog answers
     the same queries and runs with different seeds do comparable work. *)
  let queries =
    let ref_dir = Filename.concat work "scale-queries" in
    ignore
      (Scale_gen.generate
         ~config:{ Scale_gen.default with Scale_gen.tuples = 20 * topk_queries }
         ref_dir);
    let db = Storage.load ref_dir in
    let qs =
      List.filteri (fun i _ -> i < topk_queries) (titles db Scale_gen.src_name)
    in
    remove_dir ref_dir;
    qs
  in
  (* Only the last catalog is kept: an earlier one left live would sit in
     the heap behind every build. *)
  let cat = ref None in
  let setups =
    List.init setup_repeats (fun _ ->
        cat := None;
        Gc.compact ();
        let t, c = timed (fun () -> make_catalog ~seed dir) in
        cat := Some c;
        t)
  in
  let cat = Option.get !cat in
  let right = titles cat.db Scale_gen.dst_name in
  (* The latest index; a build drops it first, so every build starts with
     no index live and the same heap behind it. *)
  let last = ref None in
  let build () =
    last := None;
    (* Each build starts from a compacted heap: the previous index is
       garbage, and the collector's debt would land in this one. *)
    Obs.span "bench.runtime.compact" Gc.compact;
    let t, idx =
      timed (fun () ->
          Obs.span "bench.similarity.create" (fun () -> Sim.create ~jobs:1 right))
    in
    last := Some idx;
    t
  in
  let ask q =
    timed (fun () ->
        Obs.span "bench.similarity.query" (fun () ->
            Sim.query (Option.get !last) ~km:topk_km ~threshold:topk_threshold q))
  in
  (* A round pairs every query with a build just before it, so that build
     and query samples are spread over the whole run: a shared machine's
     speed drifts over seconds, and consecutive builds would sample one
     stretch of it. *)
  let round () = List.split (List.map (fun q -> let b = build () in (b, ask q)) queries) in
  let summary ~storage rounds extra =
    let _, answers = List.hd (List.rev rounds) in
    let idx = Option.get !last in
    (* Row counts: the generator's summary, the stream and the load. *)
    List.iter
      (fun (name, rows) ->
        check
          (List.assoc_opt name cat.streamed = Some rows)
          (Printf.sprintf "topk-scale: %s streamed rows differ from the generator's %d"
             name rows);
        check
          (Relation.cardinality (Database.find cat.db name) = rows)
          (Printf.sprintf "topk-scale: %s loaded rows differ from the generator's %d"
             name rows))
      cat.summary.Scale_gen.relations;
    check
      (Sim.size idx = List.length (List.sort_uniq String.compare right))
      "topk-scale: index size differs from the distinct title count";
    (* A sample of the queries against a scan that scores every title. *)
    List.iteri
      (fun i (q, (_, got)) ->
        if i < topk_checked then begin
          let want = brute_topk right q in
          let same =
            List.length want = List.length got
            && List.for_all2
                 (fun (a, x) (b, y) -> String.equal a b && Float.abs (x -. y) < 1e-9)
                 want got
          in
          check same
            (Printf.sprintf "topk-scale: query %S differs from the brute-force scan" q)
        end)
      (List.combine queries answers);
    let hits =
      List.fold_left
        (fun acc (_, a) ->
          List.fold_left (fun n (_, r) -> n + List.length r) acc a)
        0 rounds
    in
    Json.Obj
      ([
         ( "sizes",
           Json.String
             (Printf.sprintf "tuples=%d/side titles=%d queries/round=%d km=%d threshold=%g"
                scale_tuples (List.length right) (List.length queries) topk_km
                topk_threshold) );
         ( "config",
           let c = Scale_gen.default in
           Json.String
             (Printf.sprintf
                "tuples=%d dirt=%g duplicates=%g zipf=%g vocab=%d queries=%d km=%d threshold=%g"
                scale_tuples c.Scale_gen.dirt_rate c.Scale_gen.duplicate_rate c.Scale_gen.zipf_s
                c.Scale_gen.vocab topk_queries topk_km topk_threshold) );
         ("setup_s", floats setups);
         ("slow_op_s", floats (List.concat_map fst rounds));
         ( "fast_op_ms",
           floats
             (List.concat_map
                (fun (_, a) -> List.map (fun (s, _) -> s *. 1e3) a)
                rounds) );
         ("scan_s", Json.Float storage.scan_s);
         ("scan_rows", Json.Int (List.fold_left (fun n (_, r) -> n + r) 0 storage.streamed));
         ("load_s", Json.Float storage.load_s);
         ("queries", Json.Int (List.length queries * List.length rounds));
         ("hits", Json.Int hits);
         ("digests", strings [ Sim.postings_digest idx ]);
         ( "attempted",
           Json.Int (2 * List.length queries * List.length rounds) );
         ("failed", Json.Int 0);
         ("peak_rss_mb", Json.Float (peak_rss_mb ()));
       ]
      @ extra)
  in
  let result =
    match trace with
    | None ->
        let rounds = ref [] in
        ignore (rounds_for ~seconds (fun _ -> rounds := round () :: !rounds));
        summary ~storage:cat (List.rev !rounds) []
    | Some file ->
        (* The traced phase streams and loads the catalog again, so the
           relation layer shows in the trace too. *)
        let phase () =
          let c = make_catalog ~seed dir in
          let r = round () in
          (c, r, Sim.postings_digest (Option.get !last))
        in
        let plain_s, (_, plain, plain_digest) = timed phase in
        let traced_s, ((storage, traced_round, traced_digest), counters) =
          timed (fun () ->
              traced file (fun () ->
                  let r = phase () in
                  (r, counters_json ())))
        in
        summary ~storage [ plain; traced_round ]
          [
            ( "trace",
              Json.Obj
                [
                  ("untraced_wall_s", Json.Float plain_s);
                  ("traced_wall_s", Json.Float traced_s);
                  ("untraced_digest", Json.String plain_digest);
                  ("traced_digest", Json.String traced_digest);
                  ("counters", counters);
                ] );
          ]
  in
  remove_dir dir;
  result

(* ------------------------------------------------------------------ *)
(* serve-walmart: a [dlearn serve] process over Walmart+Amazon at
   --jobs 1, driven by two closed-loop connections in rounds. A round:

   1. the writer sends [delta]'s updates while the reader sends coverage
      of fixed clauses; then the reader queries each updated tuple and
      sends coverage of the clauses again;
   2. the writer sends a learn, alone;
   3. the writer restores the updated tuples, the reader as in 1.

   Every round thus starts from the base database and does the same
   work; the seed shuffles the order of each phase's requests. *)

module Client = Dlearn_serve.Client
module Protocol = Dlearn_serve.Protocol

let coverage_clauses =
  [
    {|upcOfComputersAccessories(u) <- walmart_ids(p, b, u), walmart_groupname(p, "Electronics - General")|};
    {|upcOfComputersAccessories(u) <- walmart_ids(p, b, u), walmart_brand(p, b)|};
    {|upcOfComputersAccessories(u) <- walmart_ids(p, b, u), walmart_groupname(p, "Home")|};
    {|upcOfComputersAccessories(u) <- walmart_ids(p, b, u), walmart_title(p, t)|};
  ]

type server = { pid : int; conns : Client.t list }

let start_server ~dlearn ~work ~trace =
  let sock = Filename.concat work "serve.sock" in
  (try Sys.remove sock with Sys_error _ -> ());
  let log =
    Unix.openfile (Filename.concat work "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let args =
    [ dlearn; "serve"; "-d"; "walmart"; "-n"; string_of_int walmart_n; "--jobs"; "1";
      "--socket"; sock ]
    @ match trace with Some f -> [ "--trace"; f ] | None -> []
  in
  let pid = Unix.create_process dlearn (Array.of_list args) Unix.stdin log log in
  Unix.close log;
  let conns = List.init 2 (fun _ -> Client.connect_retry ~attempts:1200 ~delay:0.05 sock) in
  { pid; conns }

let stop_server s =
  (match s.conns with
  | c :: _ -> ( try ignore (Client.request c (Protocol.request "shutdown" [])) with _ -> ())
  | [] -> ());
  List.iter Client.close s.conns;
  ignore (Unix.waitpid [] s.pid)

let request c op fields =
  let t0 = now () in
  let resp = Client.request c (Protocol.request op fields) in
  let t1 = now () in
  (t0, t1, resp)

let clauses_of resp =
  match Json.list_field "clauses" resp with
  | Some items -> List.map (function Json.String s -> s | _ -> "?") items
  | None -> []

(* One update: a relation, a tuple id, its new values. *)
type write = { rel : string; id : int; values : string list }

let is_title_write wr = wr.rel = "amazon_title" || wr.rel = "walmart_title"

(* The round's delta, fixed for every seed: a plain update that moves a
   positive example's product to another group (its pid and both group
   names are constants of cached ground clauses, so this invalidates
   about a third of the examples and the warm learn re-derives them),
   and a title update at an MD-compared position, which starts the
   similarity check. Tuple i of each relation describes product i. *)
let delta (w : Workload.t) =
  let product t = Scanf.sscanf (Value.as_string (Tuple.get t 0)) "upc%d" (fun k -> k - 100000) in
  let nth l i = product (List.nth l i) in
  let pos = w.Workload.pos in
  let value rel id pos = Value.as_string (Tuple.get (Relation.get (Database.find w.Workload.db rel) id) pos) in
  let keyed rel id v = { rel; id; values = [ value rel id 0; v ] } in
  [
    keyed "walmart_groupname" (nth pos 1) "Home";
    keyed "amazon_title" (nth pos 0) (value "amazon_title" (nth pos 0) 1 ^ " - Refurbished");
  ]

let restore (w : Workload.t) wr =
  let t = Relation.get (Database.find w.Workload.db wr.rel) wr.id in
  { wr with values = List.init (Tuple.arity t) (fun i -> Value.as_string (Tuple.get t i)) }

(* A query for every tuple sharing [wr]'s key (its first value). *)
let query_for wr =
  let vars = List.mapi (fun i _ -> Printf.sprintf "v%d" i) wr.values in
  Printf.sprintf "q(%s) <- %s(%s), v0 = %S" (String.concat ", " vars) wr.rel
    (String.concat ", " vars) (List.hd wr.values)

let query_returns resp wr =
  match Json.list_field "rows" resp with
  | Some rows ->
      List.exists
        (function
          | Json.List vs -> List.map (function Json.String s -> s | _ -> "") vs = wr.values
          | _ -> false)
        rows
  | None -> false

type serve_log = {
  mutable learns : (float * string list) list;  (** latency, clauses *)
  mutable coverage : float list;
  mutable queries : float list;
  mutable writes : float list;
  mutable title_writes : float list;
  mutable intervals : (float * float) list;  (** client-side request spans *)
  mutable per_request : float list;  (** ms: a phase's wall over its requests *)
  mutable errors : string list;
  m : Mutex.t;  (** guards the fields both connections write *)
}

let new_log () =
  { learns = []; coverage = []; queries = []; writes = []; title_writes = [];
    intervals = []; per_request = []; errors = []; m = Mutex.create () }

let locked log f = Mutex.protect log.m f
let add_error log e = locked log (fun () -> log.errors <- e :: log.errors)
let ms t0 t1 = (t1 -. t0) *. 1e3

(* Send one request and log its latency under [record]. *)
let send ?(may_fail = false) log c op fields ~record =
  let t0, t1, resp = request c op fields in
  locked log (fun () ->
      log.intervals <- (t0, t1) :: log.intervals;
      if Protocol.is_ok resp then record (ms t0 t1) resp
      else if not may_fail then
        log.errors <- (op ^ ": " ^ Protocol.error_of_response resp) :: log.errors);
  resp

let update log c wr =
  ignore
    (send log c "update"
       [ ("relation", Json.String wr.rel); ("id", Json.Int wr.id);
         ("values", Json.List (List.map (fun s -> Json.String s) wr.values)) ]
       ~record:(fun t _ ->
         log.writes <- t :: log.writes;
         if is_title_write wr then log.title_writes <- t :: log.title_writes))

let coverage log c clause =
  ignore
    (send log c "coverage" [ ("clause", Json.String clause) ] ~record:(fun t _ ->
         log.coverage <- t :: log.coverage))

let query log c wr =
  let resp =
    send log c "query"
      [ ("clause", Json.String (query_for wr)); ("limit", Json.Int 100) ]
      ~record:(fun t _ -> log.queries <- t :: log.queries)
  in
  if Protocol.is_ok resp && not (query_returns resp wr) then
    add_error log (Printf.sprintf "query: %s tuple %d not returned after its update" wr.rel wr.id)

let learn log c =
  ignore
    (send log c "learn" [] ~record:(fun t resp ->
         log.learns <- (t /. 1e3, clauses_of resp) :: log.learns))

let shuffle rng l =
  List.map (fun x -> (Random.State.bits rng, x)) l
  |> List.sort compare |> List.map snd

(* Writes on one connection beside coverage reads on the other; then,
   on the reader, a query for every written tuple and coverage of every
   clause again, so that the ground clauses the writes invalidated are
   rebuilt whatever the interleaving was, and the learn that follows does
   the same work in every round. *)
let write_phase log rng ~writer ~reader writes =
  let writes = shuffle rng writes in
  let wall, () =
    timed (fun () ->
        let w = Thread.create (fun () -> List.iter (update log writer) writes) () in
        List.iter (coverage log reader) (shuffle rng coverage_clauses);
        Thread.join w;
        List.iter (query log reader) (shuffle rng writes);
        List.iter (coverage log reader) (shuffle rng coverage_clauses))
  in
  (* Requests of the two connections overlap, and which waits for which
     depends on the interleaving; the phase's wall time per request does
     not. *)
  let requests = (2 * List.length writes) + (2 * List.length coverage_clauses) in
  locked log (fun () -> log.per_request <- (wall *. 1e3 /. float requests) :: log.per_request)

let ops_per_round ~delta = (4 * List.length coverage_clauses) + (4 * List.length delta) + 1

let serve_round log rng ~writer ~reader ~delta ~restores =
  write_phase log rng ~writer ~reader delta;
  (* The learn runs alone: beside it, reads on the same domain would be
     timed by the runtime's thread switches rather than by their work. *)
  learn log writer;
  write_phase log rng ~writer ~reader restores

(* Total length of the union of intervals. *)
let union_length intervals =
  let total, cur =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) (List.sort compare intervals)
  in
  match cur with Some (a, b) -> total +. (b -. a) | None -> total

(* The definition a cold server computes over a copy of the database the
   last warm learn saw: the base workload with the delta applied. *)
let cold_learn delta =
  let w = Experiment.with_jobs (Walmart_amazon.generate ~n:walmart_n ()) 1 in
  List.iter
    (fun wr ->
      let rel = Database.find w.Workload.db wr.rel in
      Database.replace_relation w.Workload.db
        (Relation.with_tuple rel wr.id (Tuple.of_strings wr.values)))
    delta;
  let state = Dlearn_serve.Server.create w in
  clauses_of (Dlearn_serve.Server.handle state (Protocol.request "learn" []))

let run_serve ~seed ~seconds ~trace ~work ~dlearn =
  let base = Experiment.with_jobs (Walmart_amazon.generate ~n:walmart_n ()) 1 in
  let delta = delta base in
  let restores = List.map (restore base) delta in
  let config_text = Format.asprintf "%a" Config.pp base.Workload.config in
  (* Start a server and prime it with a cold learn; set-up covers both. *)
  let start ~trace log =
    timed (fun () ->
        let srv = start_server ~dlearn ~work ~trace in
        learn log (List.hd srv.conns);
        srv)
  in
  let session ~trace ~rounds log =
    let setup_s, srv = start ~trace log in
    let prime = match log.learns with [ (_, c) ] -> c | _ -> [] in
    let writer, reader = match srv.conns with [ a; b ] -> (a, b) | _ -> assert false in
    let rng = Random.State.make [| seed; 0x5E4 |] in
    let body _ = serve_round log rng ~writer ~reader ~delta ~restores in
    (* A warm-up round: the first warm learn after the prime one still
       fills caches the later ones find. Its operations count; its
       latencies are not samples. *)
    body 0;
    locked log (fun () ->
        log.learns <- List.filteri (fun i _ -> i = List.length log.learns - 1) log.learns;
        log.coverage <- [];
        log.queries <- [];
        log.writes <- [];
        log.title_writes <- [];
        log.per_request <- []);
    let wall, rounds =
      timed (fun () ->
          match rounds with
          | `Rounds k -> for r = 1 to k do body r done; k
          | `Seconds s -> rounds_for ~seconds:s body)
    in
    let rounds = rounds + 1 in
    let rss = peak_rss_mb_of srv.pid in
    (* After the rounds, each round re-scores the prime definition's
       clauses with [coverage]: a fixed, seed-independent request set.
       Clauses with repair literals fail today: Clause.to_string renders
       them in a syntax Parser.clause does not read. *)
    let rescore_failed = ref 0 and rescore_errors = ref [] in
    for _ = 1 to rounds do
      List.iter
        (fun clause ->
          let resp =
            send ~may_fail:true log writer "coverage" [ ("clause", Json.String clause) ]
              ~record:(fun _ _ -> ())
          in
          if not (Protocol.is_ok resp) then begin
            incr rescore_failed;
            rescore_errors := Protocol.error_of_response resp :: !rescore_errors
          end)
        prime
    done;
    let counters =
      match trace with
      | Some _ ->
          let resp = send log writer "metrics" [] ~record:(fun _ _ -> ()) in
          Option.value (Json.member "metrics" resp) ~default:Json.Null
      | None -> Json.Null
    in
    stop_server srv;
    ( setup_s, prime, wall, rounds, rss,
      (rounds * List.length prime, !rescore_failed, List.sort_uniq String.compare !rescore_errors),
      counters )
  in
  let summary log ~setups ~rounds ~prime ~rescored ~rss extra =
    let r_att, r_failed, r_messages = rescored in
    List.iter (fun e -> check false ("serve-walmart: " ^ e)) (List.sort_uniq String.compare log.errors);
    let learns = List.rev log.learns in
    let warm = List.tl learns in
    let last_warm = match log.learns with (_, c) :: _ -> c | [] -> [] in
    check (cold_learn delta = last_warm && last_warm <> [])
      "serve-walmart: last warm definition differs from a cold learn over the same database";
    Json.Obj
      ([
         ("config", Json.String config_text);
         ( "sizes",
           Json.String
             (Printf.sprintf
                "n=%d rounds=%d (the first a warm-up) per round: %d updates + %d restores \
                 (half at a title), %d coverage, %d queries, 1 learn"
                walmart_n rounds (List.length delta) (List.length restores)
                (4 * List.length coverage_clauses) (2 * List.length delta)) );
         ("setup_s", floats setups);
         ("slow_op_s", floats (List.map fst warm));
         ("fast_op_ms", floats log.per_request);
         ("coverage_ms", floats log.coverage);
         ("query_ms", floats log.queries);
         ("write_ms", floats log.writes);
         ("title_write_ms", floats log.title_writes);
         ("client_busy_s", Json.Float (union_length log.intervals));
         ( "digests",
           strings (List.sort_uniq String.compare (List.map (fun (_, c) -> digest_lines c) learns)) );
         ("definition", strings last_warm);
         ("prime_definition", strings prime);
         ("rescore_errors", strings r_messages);
         ("attempted", Json.Int ((ops_per_round ~delta * rounds) + r_att));
         ("failed", Json.Int r_failed);
         ("peak_rss_mb", Json.Float rss);
       ]
      @ extra)
  in
  match trace with
  | None ->
      (* Earlier set-ups start a server, prime it and stop it again. *)
      let early =
        List.init (setup_repeats - 1) (fun _ ->
            let setup_s, srv = start ~trace:None (new_log ()) in
            stop_server srv;
            setup_s)
      in
      let log = new_log () in
      let setup_s, prime, _, rounds, rss, rescored, _ =
        session ~trace:None ~rounds:(`Seconds seconds) log
      in
      summary log ~setups:(early @ [ setup_s ]) ~rounds ~prime ~rescored ~rss []
  | Some file ->
      let plain = new_log () in
      let _, _, plain_wall, _, _, _, _ =
        session ~trace:None ~rounds:(`Rounds traced_rounds_serve) plain
      in
      let log = new_log () in
      let setup_s, prime, wall, rounds, rss, rescored, counters =
        session ~trace:(Some file) ~rounds:(`Rounds traced_rounds_serve) log
      in
      let d l = digest_lines (List.rev_map (fun (_, c) -> digest_lines c) l.learns) in
      summary log ~setups:[ setup_s ] ~rounds ~prime ~rescored ~rss
        [
          ( "trace",
            Json.Obj
              [
                ("untraced_wall_s", Json.Float plain_wall);
                ("traced_wall_s", Json.Float wall);
                ("untraced_digest", Json.String (d plain));
                ("traced_digest", Json.String (d log));
                ("counters", counters);
              ] );
        ]

(* ------------------------------------------------------------------ *)

let () =
  let usage () =
    prerr_endline
      "usage: bench.exe (learn-imdb3|serve-walmart|topk-scale) --seed N --seconds T \
       --work DIR [--trace FILE] [--dlearn EXE]";
    exit 2
  in
  let args = Array.to_list Sys.argv |> List.tl in
  let workload, rest = match args with w :: r -> (w, r) | [] -> usage () in
  let rec opts acc = function
    | k :: v :: r when String.length k > 2 && String.sub k 0 2 = "--" -> opts ((k, v) :: acc) r
    | [] -> acc
    | _ -> usage ()
  in
  let o = opts [] rest in
  let get k = List.assoc_opt k o in
  let req k = match get k with Some v -> v | None -> usage () in
  let seed = int_of_string (req "--seed") in
  let seconds = float_of_string (req "--seconds") in
  let work = req "--work" in
  let trace = get "--trace" in
  Storage.mkdir_p work;
  let result =
    match workload with
    | "learn-imdb3" -> run_learn ~seed ~seconds ~trace
    | "topk-scale" -> run_topk ~seed ~seconds ~trace ~work
    | "serve-walmart" -> run_serve ~seed ~seconds ~trace ~work ~dlearn:(req "--dlearn")
    | _ -> usage ()
  in
  let result =
    match result with
    | Json.Obj fields ->
        Json.Obj
          (fields
          @ [
              ("ocaml", Json.String Sys.ocaml_version);
              ("checks_failed", strings (List.rev !failures));
            ])
    | j -> j
  in
  print_endline (Json.to_string result)
