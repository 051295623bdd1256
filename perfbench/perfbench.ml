(* The repository benchmark: three seeded workloads, each a timed phase
   whose simulated outputs are checked, plus a traced run that splits
   host time and allocation by layer.  run.py builds and drives this
   executable; README.md next to it has the metric table, why each
   workload was chosen and what is deliberately left unmeasured.

     perfbench.exe --workload fig6-sweep|exploit-sweep|trace-replay \
                   --seed N --seconds S --trace 0|1

   Run from the repository root (the output checks read the goldens
   under test/golden/).  The last stdout line is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. *)

module Counter = Chex86_stats.Counter
module Json = Chex86_stats.Json
module Pool = Chex86_harness.Pool
module Runner = Chex86_harness.Runner
module Security = Chex86_harness.Security
module Trace = Chex86_harness.Trace
module Exploit = Chex86_exploits.Exploit
module Campaign = Chex86_exploits.Campaign
module Machine = Chex86_machine
module Hierarchy = Chex86_mem.Hierarchy
module Cachetrace = Chex86_frontend.Cachetrace
module Uoptrace = Chex86_frontend.Uoptrace
module Gen = Chex86_frontend.Gen
module Bench_spec = Chex86_workloads.Bench_spec

let preset = Machine.Preset.skylake
let work_dir = Filename.concat "perfbench" "_work"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- measurement primitives ---------------------------------------------- *)

(* Minor-heap bytes this domain has allocated so far.  [Gc.minor_words]
   is exact at any instant; [Gc.counters] / [Gc.quick_stat] only advance
   at minor collections, so under the 8 MW minor heap they misread a
   call by up to a whole heap fill. *)
let minor_bytes () = Gc.minor_words () *. float_of_int (Sys.word_size / 8)

type 'a measured = { value : 'a; seconds : float; bytes : float }

let measure f =
  let b0 = minor_bytes () in
  let t0 = Pool.now () in
  let value = f () in
  let seconds = Pool.now () -. t0 in
  { value; seconds; bytes = minor_bytes () -. b0 }

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* VmHWM: the peak resident set of this process, which runs one
   workload and nothing else. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

(* --- reference kernel ---------------------------------------------------- *)

(* The host's cores are shared with other tenants, whose memory traffic
   slows this process by tens of percent for stretches of seconds to
   minutes.  The simulator's time follows the host's memory-streaming
   speed almost in proportion (it allocates through an 8 MW minor
   heap), so each timed piece is divided by the time of this kernel,
   run at the boundaries on either side of it: a fixed sequential
   read-modify-write pass over a 16 MiB buffer, which streams through
   memory as the minor heap's allocation pointer does.  It is compiled
   here, not in the simulator, so a change to the simulator leaves it
   alone. *)
let ref_words = 2 * 1024 * 1024
let ref_buffer = lazy (Array.make ref_words 0)

let ref_kernel () =
  let buf = Lazy.force ref_buffer in
  for j = 0 to ref_words - 1 do
    Array.unsafe_set buf j (Array.unsafe_get buf j + j)
  done

(* Seconds per reference kernel now: the mean of two. *)
let ref_seconds () = ((measure ref_kernel).seconds +. (measure ref_kernel).seconds) /. 2.

(* --- workloads ------------------------------------------------------------- *)

(* One pass over a workload's timed phase.  Its [pieces] run in order,
   each timed on its own; [finish], untimed, then says per op whether it
   passed every output check ([verdicts]) and gives its simulated
   [outputs], which must repeat exactly from one pass to the next. *)
type outcome = { work : int; verdicts : bool array; outputs : string array }
type pass = { pieces : (unit -> unit) array; finish : unit -> outcome }

type workload = {
  name : string;
  work_unit : string;
  (* Set-up: build the inputs and warm up, then hand back the start of
     a pass (untimed: fresh state for it). *)
  prepare : seed:int -> unit -> pass;
}

let outcome_name = function
  | Runner.Completed -> "completed"
  | Runner.Blocked kind -> "blocked:" ^ Chex86.Violation.class_name kind
  | Runner.Aborted _ -> "aborted"
  | Runner.Faulted _ -> "faulted"
  | Runner.Budget_exhausted -> "budget"

(* --- fig6-sweep: the paper's Figure 6 on three workloads ----------------- *)

let fig6_names = [ "mcf"; "canneal"; "freqmine" ]

(* Variant names as test/golden/timing.json spells them. *)
let fig6_configs =
  [
    ("insecure", Runner.insecure);
    ("hardware_only", Runner.Chex (Chex86.Variant.make Chex86.Variant.Hardware_only));
    ( "binary_translation",
      Runner.Chex (Chex86.Variant.make Chex86.Variant.Binary_translation) );
    ("always_on", Runner.Chex (Chex86.Variant.make Chex86.Variant.Microcode_always_on));
    ("chex86", Runner.prediction);
    ("asan", Runner.Asan);
  ]

(* (workload, variant) -> (macro_insns, uops, cycles) for every pinned
   pair of a fig6 workload; every such pair must be a fig6 task. *)
let fig6_golden () =
  let fail msg = failwith ("test/golden/timing.json: " ^ msg) in
  match Json.of_string (read_file "test/golden/timing.json") with
  | Error e -> fail e
  | Ok doc ->
    let entries =
      match Json.member "entries" doc with Some (Json.List l) -> l | _ -> fail "no entries"
    in
    List.filter_map
      (fun e ->
        let str k = Option.bind (Json.member k e) Json.to_string_opt in
        let int k =
          match Option.bind (Json.member k e) Json.to_int_opt with
          | Some v -> v
          | None -> fail ("entry without " ^ k)
        in
        match (str "workload", str "variant") with
        | Some w, Some v when List.mem w fig6_names ->
          if not (List.mem_assoc v fig6_configs) then fail ("unknown variant " ^ v);
          Some ((w, v), (int "macro_insns", int "uops", int "cycles"))
        | Some _, Some _ -> None
        | _ -> fail "entry without workload/variant")
      entries

let run_outputs (r : Runner.run) =
  Printf.sprintf "%s %d %d %d %d %d %s" (outcome_name r.outcome) r.macro_insns r.uops
    r.uops_injected r.uops_killed r.cycles
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Counter.to_list r.counters)))

let prepare_fig6 ~seed:_ =
  let golden = fig6_golden () in
  let specs = List.map Chex86_workloads.Workloads.find fig6_names in
  let jobs =
    List.concat_map
      (fun w -> List.map (fun (_, config) -> Runner.job ~scale:1 config w) fig6_configs)
      specs
  in
  (* Warm-up: every program built and run once, functionally. *)
  List.iter
    (fun (w : Bench_spec.t) ->
      ignore (Runner.run_program ~timing:false Runner.insecure (w.build ~scale:1)))
    specs;
  fun () ->
    (* Otherwise the memo answers every job of a repeated sweep. *)
    Runner.reset_for_tests ();
    let sweep job () = ignore (Runner.prefetch_supervised ~jobs:1 [ job ] : Pool.fault_report) in
    let finish () =
      let cells =
        List.concat_map
          (fun (w : Bench_spec.t) ->
            List.map
              (fun (vname, config) ->
                (w.name, vname, Runner.run_workload_result ~scale:1 config w))
              fig6_configs)
          specs
      in
      let baseline wname =
        List.find_map
          (fun (w, v, r) ->
            match r with
            | Ok (r : Runner.run) when w = wname && v = "insecure" -> Some r.macro_insns
            | _ -> None)
          cells
      in
      let verdict (wname, vname, result) =
        match result with
        | Error _ -> false
        | Ok (r : Runner.run) ->
          r.outcome = Runner.Completed
          && baseline wname = Some r.macro_insns
          &&
          match List.assoc_opt (wname, vname) golden with
          | None -> true
          | Some (insns, uops, cycles) ->
            insns = r.macro_insns && uops = r.uops && cycles = r.cycles
      in
      {
        work =
          List.fold_left
            (fun acc (_, _, r) ->
              match r with Ok (r : Runner.run) -> acc + r.macro_insns | Error _ -> acc)
            0 cells;
        verdicts = Array.of_list (List.map verdict cells);
        outputs =
          Array.of_list
            (List.map
               (fun (_, _, r) ->
                 match r with Ok r -> run_outputs r | Error f -> Pool.fault_to_string f)
               cells);
      }
    in
    (* One piece per simulation task. *)
    { pieces = Array.of_list (List.map sweep jobs); finish }

(* --- exploit-sweep: the Section VII-A security evaluation ---------------- *)

let exploit_corpus ~seed =
  Chex86_exploits.Exploits.all
  @ List.map Campaign.to_exploit (Campaign.corpus ~seed ~per_family:12)

(* Suite exploits must be caught with their expected violation class;
   generated campaigns (whose blocked count varies by seed) must never
   corrupt. *)
let exploit_ok (r : Security.result) =
  match r.exploit.Exploit.suite with
  | Exploit.Campaign -> Security.corruption_prevented r
  | Exploit.Ripe | Exploit.Asan_suite | Exploit.How2heap -> Security.blocked_as_expected r

(* Consecutive groups of [n]. *)
let chunks n xs =
  let a = Array.of_list xs in
  Array.init
    ((Array.length a + n - 1) / n)
    (fun i -> Array.to_list (Array.sub a (i * n) (min n (Array.length a - (i * n)))))

(* Exploits per timed piece: about 40 ms of evaluations. *)
let exploit_chunk = 16

let prepare_exploits ~seed =
  let corpus = exploit_corpus ~seed in
  let groups = chunks exploit_chunk corpus in
  (* Warm-up: every 16th exploit evaluated once. *)
  ignore
    (Security.sweep_stats_supervised ~jobs:1
       (List.filteri (fun i _ -> i mod 16 = 0) corpus));
  fun () ->
    let slots = Array.make (Array.length groups) [] in
    let sweep i group () =
      let s, _, _ = Security.sweep_stats_supervised ~jobs:1 group in
      slots.(i) <- s
    in
    let outputs (r : Security.result) =
      Printf.sprintf "%s %b %d | %s %b %d"
        (outcome_name r.insecure.outcome) r.insecure.pwned r.insecure.macro_insns
        (outcome_name r.under_protection.outcome) r.under_protection.pwned
        r.under_protection.macro_insns
    in
    let finish () =
      let slots = List.concat (Array.to_list slots) in
      {
        work = List.length slots;
        verdicts =
          Array.of_list
            (List.map (function _, Ok r -> exploit_ok r | _, Error _ -> false) slots);
        outputs =
          Array.of_list
            (List.map
               (function _, Ok r -> outputs r | _, Error f -> Pool.fault_to_string f)
               slots);
      }
    in
    { pieces = Array.mapi sweep groups; finish }

(* --- trace-replay: the trace-driven frontend ----------------------------- *)

let trace_lines = 400_000
let uop_records = 100_000

type trace_inputs = {
  cache : string array;  (** cachetrace text, one line per element *)
  uops : string array;  (** uoptrace JSONL, header first *)
  golden_input : string array;
  golden_csv : string;
}

let lines_of text =
  Array.of_list (List.filter (fun l -> l <> "") (String.split_on_char '\n' text))

let trace_inputs ~seed =
  {
    cache = lines_of (Gen.cachetrace ~seed ~n:trace_lines ());
    uops =
      Array.of_list
        (Uoptrace.header :: List.map Uoptrace.to_line (Gen.uoptrace ~seed ~n:uop_records ()));
    golden_input = lines_of (Gen.cachetrace ~seed:1 ~n:2000 ());
    golden_csv = read_file "test/golden/trace_skylake.csv";
  }

let reader lines =
  let i = ref 0 in
  fun () ->
    let k = !i in
    if k >= Array.length lines then None
    else begin
      incr i;
      Some lines.(k)
    end

let fresh_hierarchy () =
  let counters = Counter.create_group () in
  (counters, Hierarchy.create ~config:preset.hier counters)

let replay_cachetrace ~csv_path lines =
  let counters, hier = fresh_hierarchy () in
  let oc = open_out_bin csv_path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Cachetrace.run ~csv:oc ~counters hier (reader lines))

let replay_uops lines =
  Result.map
    (fun records ->
      let counters, hier = fresh_hierarchy () in
      let pipeline = Machine.Pipeline.create ~config:preset.core hier counters in
      Uoptrace.replay ~pipeline records;
      (List.length records, Machine.Pipeline.cycles pipeline, counters))
    (Uoptrace.read (reader lines))

(* The seed-1, 2000-line replay must reproduce the pinned CSV byte for
   byte. *)
let golden_replay_ok inputs =
  let path = Filename.concat work_dir "golden.csv" in
  match replay_cachetrace ~csv_path:path inputs.golden_input with
  | Ok _ -> read_file path = inputs.golden_csv
  | Error _ -> false

(* Cachetrace lines per timed piece. *)
let trace_slice = 50_000

let prepare_trace ~seed =
  let inputs = trace_inputs ~seed in
  let csv_path = Filename.concat work_dir "replay.csv" in
  let lines = Array.length inputs.cache - 1 (* the generator's comment header *) in
  let slices =
    Array.map Array.of_list (chunks trace_slice (Array.to_list inputs.cache))
  in
  (* Warm-up: the golden replay plus a short µop replay. *)
  ignore (golden_replay_ok inputs);
  ignore (replay_uops (Array.sub inputs.uops 0 4097));
  fun () ->
    (* The slices replay in turn through one hierarchy into one CSV file
       (one header per slice); then the µop trace is parsed and replayed. *)
    let counters, hier = fresh_hierarchy () in
    let oc = open_out_bin csv_path in
    let summaries = Array.make (Array.length slices) (Error "not replayed") in
    let replay i slice () = summaries.(i) <- Cachetrace.run ~csv:oc ~counters hier (reader slice) in
    let pcounters, phier = fresh_hierarchy () in
    let pipeline = Machine.Pipeline.create ~config:preset.core phier pcounters in
    let parsed = ref (Error "not parsed") in
    let parse () = parsed := Uoptrace.read (reader inputs.uops) in
    let replay_records () = Result.iter (fun r -> Uoptrace.replay ~pipeline r) !parsed in
    let finish () =
      close_out oc;
      let cache_ok, cache_out, accesses =
        Array.fold_left
          (fun (ok, out, n) summary ->
            match summary with
            | Error e -> (false, out ^ e, n)
            | Ok (s : Cachetrace.summary) ->
              ( ok && s.reads + s.writes = s.accesses
                && s.l1_hits + s.l2_hits + s.misses = s.accesses,
                out
                ^ Printf.sprintf "%d %d %d %d %d %d %d %d %d;" s.accesses s.reads s.writes
                    s.l1_hits s.l2_hits s.misses s.total_latency s.mem_bytes
                    s.writeback_bytes,
                n + s.accesses ))
          (true, "", 0) summaries
      in
      let uop_ok, uop_out, records =
        match !parsed with
        | Error e -> (false, e, 0)
        | Ok r ->
          let n = List.length r in
          ( n = uop_records && Counter.get pcounters "pipeline.uops" = n,
            Printf.sprintf "%d %d %s" n (Machine.Pipeline.cycles pipeline)
              (String.concat ","
                 (List.map
                    (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                    (Counter.to_list pcounters))),
            n )
      in
      {
        work = accesses + records;
        verdicts = [| cache_ok && accesses = lines; uop_ok; golden_replay_ok inputs |];
        outputs = [| cache_out ^ Digest.to_hex (Digest.file csv_path); uop_out; "" |];
      }
    in
    { pieces = Array.append (Array.mapi replay slices) [| parse; replay_records |]; finish }

let workloads =
  [
    { name = "fig6-sweep"; work_unit = "macro-insn"; prepare = prepare_fig6 };
    { name = "exploit-sweep"; work_unit = "evaluation"; prepare = prepare_exploits };
    { name = "trace-replay"; work_unit = "record"; prepare = prepare_trace };
  ]

(* --- reporting ------------------------------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

(* Human-readable lines first; the result is the last line alone. *)
let emit ~attempted ~failed metrics =
  List.iter
    (fun m -> Printf.printf "  %-42s %16.6g %s\n" m.m_name m.m_value m.m_unit)
    metrics;
  let json =
    Json.Obj
      [
        ("correct", Json.Bool (failed = 0));
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun m ->
                 ( m.m_name,
                   Json.Obj [ ("value", Json.Float m.m_value); ("unit", Json.String m.m_unit) ]
                 ))
               metrics) );
      ]
  in
  print_endline (Json.to_string json)

(* A pass as measured: each piece's time, the reference kernel's time
   at each boundary between pieces (one more than there are pieces), the
   minor-heap bytes of the pieces, and the pass's outcome. *)
type rep = {
  times : float array;
  refs : float array;
  r_bytes : float;
  work : int;
  verdicts : bool array;
  outputs : string array;
}

let pass_seconds r = Array.fold_left ( +. ) 0. r.times

(* Piece [i] of a pass in reference-kernel units: its time divided by
   the mean of the reference times on either side of it. *)
let piece_ref r i = 2. *. r.times.(i) /. (r.refs.(i) +. r.refs.(i + 1))

let pass_ref r =
  let sum = ref 0. in
  Array.iteri (fun i _ -> sum := !sum +. piece_ref r i) r.times;
  !sum

(* The sum over pieces of each piece's least time in reference units
   across passes. *)
let fastest_ref reps =
  match reps with
  | [] -> nan
  | first :: _ ->
    let best = Array.mapi (fun i _ -> piece_ref first i) first.times in
    List.iter (fun r -> Array.iteri (fun i b -> best.(i) <- Float.min b (piece_ref r i)) best) reps;
    Array.fold_left ( +. ) 0. best

let run_pass start =
  let p = start () in
  let n = Array.length p.pieces in
  let times = Array.make n 0. and refs = Array.make (n + 1) 0. and bytes = ref 0. in
  refs.(0) <- ref_seconds ();
  Array.iteri
    (fun i piece ->
      let m = measure piece in
      times.(i) <- m.seconds;
      bytes := !bytes +. m.bytes;
      refs.(i + 1) <- ref_seconds ())
    p.pieces;
  let o = p.finish () in
  { times; refs; r_bytes = !bytes; work = o.work; verdicts = o.verdicts; outputs = o.outputs }

(* Failed ops across passes: an op fails its own checks, or its
   simulated outputs differ from the first pass's. *)
let count_ops reps =
  match reps with
  | [] -> (0, 0)
  | first :: _ ->
    List.fold_left
      (fun (attempted, failed) r ->
        let bad = ref 0 in
        Array.iteri
          (fun i ok ->
            if (not ok) || i >= Array.length first.outputs || r.outputs.(i) <> first.outputs.(i)
            then incr bad)
          r.verdicts;
        (attempted + Array.length r.verdicts, failed + !bad))
      (0, 0) reps

let min_reps = 3
let min_setups = 15

(* Untraced run: set-up and a timed pass alternate until [seconds] have
   passed (at least [min_reps] of each), so that both sample the host
   over the same window.  A workload whose passes are long does extra
   set-ups before each, enough for about [min_setups] set-up samples;
   their inputs are dropped at once, so only the current set-up's
   inputs are live.  [wall_ref] adds up every piece's least time over
   the run in reference-kernel units: what the host's drift leaves of
   a piece's time after the division is still a slowdown, never a
   speed-up, so the least of several passes spread over the run is the
   closest to the piece's own cost.  [setup_s] is the median set-up,
   in seconds. *)
let timed_run w ~seed ~seconds =
  let setups = ref [] and reps = ref [] and rss = ref nan in
  let prepare () =
    Gc.full_major ();
    let prepared = measure (fun () -> w.prepare ~seed) in
    setups := prepared.seconds :: !setups;
    prepared.value
  in
  let per_rep = ref 1 in
  let start = Pool.now () in
  while List.length !reps < min_reps || Pool.now () -. start < seconds do
    for _ = 2 to !per_rep do
      ignore (prepare () : unit -> pass)
    done;
    let start_pass = prepare () in
    Gc.full_major ();
    let r = run_pass start_pass in
    reps := r :: !reps;
    (* Passes this run will fit, from the first one's length. *)
    if List.length !reps = 1 then
      per_rep :=
        int_of_float
          (ceil
             (float_of_int min_setups
             /. Float.max (float_of_int min_reps) (seconds /. pass_seconds r)));
    (* After a fixed number of passes, so that the peak does not depend
       on how many of them the host's speed fits in [seconds]. *)
    if List.length !reps = min_reps then rss := peak_rss_mb ()
  done;
  let reps = List.rev !reps in
  let attempted, failed = count_ops reps in
  let wall = fastest_ref reps in
  let work = median (List.map (fun r -> float_of_int r.work) reps) in
  let times xs = String.concat " " (List.map (Printf.sprintf "%.3f") xs) in
  Printf.printf
    "%s: %d pass(es) of %d piece(s), %.0f %s(s)\n  pass %s s\n  pass %s ref, fastest pieces %.3f ref\n  reference kernel (median) %s ms\n  set-up %s s\n"
    w.name (List.length reps)
    (match reps with r :: _ -> Array.length r.times | [] -> 0)
    work w.work_unit
    (times (List.map pass_seconds reps))
    (times (List.map pass_ref reps))
    wall
    (times (List.map (fun r -> 1e3 *. median (Array.to_list r.refs)) reps))
    (times (List.rev !setups));
  emit ~attempted ~failed
    [
      metric "wall_ref" "ref" wall;
      metric "work_per_ref" "1/ref" (work /. wall);
      metric "alloc_bytes_per_work" "B"
        (median (List.map (fun r -> r.r_bytes /. float_of_int (max 1 r.work)) reps));
      metric "peak_rss_mb" "MB" !rss;
      metric "setup_s" "s" (median !setups);
    ]

(* --- traced run: per-layer split ------------------------------------------ *)

type span = {
  stage : string;
  parent : int;
  t0 : float;
  mutable t1 : float;
  mutable children : float;  (** summed duration of the direct children *)
}

let duration s = s.t1 -. s.t0

(* This process's spans from a trace file, by id. *)
let read_spans path =
  let spans = Hashtbl.create 4096 in
  List.iter
    (fun line ->
      match Json.of_string line with
      | Error _ -> ()
      | Ok v -> (
        let str k = Option.bind (Json.member k v) Json.to_string_opt in
        let int k = Option.bind (Json.member k v) Json.to_int_opt in
        match (str "ev", int "id", Option.bind (Json.member "t" v) Json.to_float_opt) with
        | Some "b", Some id, Some t when str "src" = Some "main" ->
          Hashtbl.replace spans id
            {
              stage = Option.value ~default:"" (str "stage");
              parent = Option.value ~default:0 (int "par");
              t0 = t;
              t1 = t;
              children = 0.;
            }
        | Some "e", Some id, Some t -> (
          match Hashtbl.find_opt spans id with Some s -> s.t1 <- t | None -> ())
        | _ -> ()))
    (String.split_on_char '\n' (read_file path));
  Hashtbl.iter
    (fun _ c ->
      match Hashtbl.find_opt spans c.parent with
      | Some p -> p.children <- p.children +. duration c
      | None -> ())
    spans;
  spans

(* A span's self time: its duration minus what its direct children
   cover (children of one span never overlap at one job). *)
let self_time spans id =
  match Hashtbl.find_opt spans id with Some s -> duration s -. s.children | None -> nan

(* Durations of the [stage] spans lying inside [outer]'s interval. *)
let durations_within spans ~outer stage =
  Hashtbl.fold
    (fun _ s acc ->
      if s.stage = stage && s.t0 >= outer.t0 && s.t1 <= outer.t1 then duration s :: acc
      else acc)
    spans []

(* One call into a layer, inside its own span; the span id keys the
   self-time lookup, the bytes are measured around the call. *)
let call stage attrs f =
  let id = Trace.span_begin ~stage attrs in
  let m = measure f in
  Trace.span_end id;
  (id, m)

(* Engine, monitors and timing are nested inside one simulation call,
   so each is the difference between two calls on the same program:
   insecure functional (engine), chex86 functional (+ monitor), ASan
   functional (+ ASan), chex86 timed (+ pipeline and hierarchy). *)
let engine_drill () =
  List.map
    (fun name ->
      let program = (Chex86_workloads.Workloads.find name).build ~scale:1 in
      let run stage ~timing config =
        call stage [ ("workload", name) ] (fun () ->
            Runner.run_program ~timing config program)
      in
      let insecure = run "layer.engine" ~timing:false Runner.insecure in
      let chex = run "layer.monitor.chex86" ~timing:false Runner.prediction in
      let asan = run "layer.asan" ~timing:false Runner.Asan in
      let timed = run "layer.timing" ~timing:true Runner.prediction in
      (insecure, chex, asan, timed))
    fig6_names

(* Outcome and size of a drilled run, as Runner.run_program reports
   them; [construction_ok] checks the drill against it. *)
let drilled_outputs (r : Machine.Simulator.result) =
  let outcome =
    match r.outcome with
    | Machine.Simulator.Finished -> Runner.Completed
    | Machine.Simulator.Budget_exhausted -> Runner.Budget_exhausted
    | Machine.Simulator.Faulted (Chex86.Violation.Security_violation kind) -> Runner.Blocked kind
    | Machine.Simulator.Faulted (Chex86_os.Allocator.Heap_abort msg) -> Runner.Aborted msg
    | Machine.Simulator.Faulted e -> Runner.Faulted (Printexc.to_string e)
  in
  Printf.sprintf "%s %d %d" (outcome_name outcome) r.macro_insns r.uops

(* Sim.run's construction sequence, one span per layer, over every
   single-core exploit on the insecure and prediction-driven machines. *)
let construction_drill corpus =
  List.concat_map
    (fun (e : Exploit.t) ->
      match e.execution with
      | Exploit.Multi_core _ -> []
      | Exploit.Single_core ->
        List.map
          (fun variant ->
            let program = e.build () in
            let load, m_load =
              call "layer.os.load" [] (fun () -> Chex86_os.Process.load ~heap:e.heap program)
            in
            let proc = m_load.value in
            let hooks = Machine.Hooks.none () in
            let create, m_create =
              call "layer.machine.create" [] (fun () -> Machine.Simulator.create ~hooks proc)
            in
            let sim = m_create.value in
            let monitor, _ =
              call "layer.core.monitor_create" [] (fun () ->
                  Chex86.Monitor.install
                    (Chex86.Monitor.create ~variant ~proc
                       ~hier:(Machine.Simulator.hierarchy sim) ())
                    hooks)
            in
            let _, m_exec =
              call "layer.exec" [] (fun () ->
                  Machine.Simulator.run_functional ~max_insns:2_000_000 sim)
            in
            ((load, create, monitor), (e, variant, drilled_outputs m_exec.value)))
          [ Chex86.Variant.make Chex86.Variant.Insecure; Chex86.Variant.default ])
    corpus

(* Each drilled run must match what Runner.run_program (the call the
   security sweep makes) reports for the same exploit and variant. *)
let construction_ok (e, variant, drilled) =
  let r =
    Runner.run_program ~timing:false ~max_insns:2_000_000 ~heap:e.Exploit.heap
      (Runner.Chex variant) (e.build ())
  in
  drilled = Printf.sprintf "%s %d %d" (outcome_name r.outcome) r.macro_insns r.uops

(* Parse, hierarchy access and CSV rows of the cachetrace replay as
   separate calls on pre-parsed data, then the µop-trace parse and
   pipeline replay.  [frontend_ok] checks the drilled CSV against
   Cachetrace.run's. *)
let frontend_drill inputs =
  let csv_path = Filename.concat work_dir "drill.csv" in
  let parse, m_parse =
    call "layer.frontend.parse" [] (fun () ->
        Array.of_list
          (List.filter_map
             (fun line ->
               match Cachetrace.parse_line line with Ok a -> a | Error e -> failwith e)
             (Array.to_list inputs.cache)))
  in
  let accesses = m_parse.value in
  let n = Array.length accesses in
  let counters, hier = fresh_hierarchy () in
  let h_l1 = Counter.handle counters "l1d.hit" and h_l2 = Counter.handle counters "l2.hit" in
  let latency = Array.make n 0 and level = Array.make n 0 in
  let access, m_access =
    call "layer.mem.access" [] (fun () ->
        for i = 0 to n - 1 do
          let a = accesses.(i) in
          let l1 = Counter.get_handle counters h_l1 and l2 = Counter.get_handle counters h_l2 in
          latency.(i) <-
            Hierarchy.access hier ~kind:Hierarchy.Data ~write:a.Cachetrace.write a.addr;
          level.(i) <-
            (if Counter.get_handle counters h_l1 > l1 then 0
             else if Counter.get_handle counters h_l2 > l2 then 1
             else 2)
        done)
  in
  let csv, _ =
    call "layer.frontend.csv" [] (fun () ->
        let oc = open_out_bin csv_path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            output_string oc "seq,op,addr,latency,level\n";
            Array.iteri
              (fun i (a : Cachetrace.access) ->
                Printf.fprintf oc "%d,%c,0x%x,%d,%s\n" i
                  (if a.write then 'W' else 'R')
                  a.addr latency.(i)
                  (match level.(i) with 0 -> "l1" | 1 -> "l2" | _ -> "mem"))
              accesses))
  in
  let uop_parse, m_uop_parse =
    call "layer.frontend.uop_parse" [] (fun () -> Uoptrace.read (reader inputs.uops))
  in
  let records = match m_uop_parse.value with Ok r -> r | Error e -> failwith e in
  let pcounters, phier = fresh_hierarchy () in
  let pipeline = Machine.Pipeline.create ~config:preset.core phier pcounters in
  let replay, _ = call "layer.pipeline.replay" [] (fun () -> Uoptrace.replay ~pipeline records) in
  ( (parse, m_parse, uop_parse, m_uop_parse, List.length records),
    (access, m_access, n, counters, hier),
    (csv, csv_path),
    replay )

let frontend_ok inputs ~drill_csv =
  let path = Filename.concat work_dir "check.csv" in
  match replay_cachetrace ~csv_path:path inputs.cache with
  | Ok _ -> read_file path = read_file drill_csv
  | Error _ -> false

let ratio num den = if den = 0 then nan else float_of_int num /. float_of_int den

(* A trace file must pass trace-summary's structural validation; its
   summary goes to stderr. *)
let summarize path =
  match Trace.summarize_file path with
  | Ok summary ->
    prerr_endline summary;
    true
  | Error e ->
    prerr_endline ("trace-summary: " ^ e);
    false

(* Traced run: untraced and traced passes alternate until [seconds]
   have passed (at least one pair) for the tracing overhead, in
   reference-kernel units; then every layer's calls run once, each
   inside its own span. *)
let traced_run w ~seed ~seconds =
  let prep = measure (fun () -> w.prepare ~seed) in
  let rep = prep.value in
  let programs_corpus = exploit_corpus ~seed in
  let inputs = trace_inputs ~seed in
  let rep_trace = Filename.concat work_dir "rep-trace.jsonl" in
  let pairs = ref [] in
  let start = Pool.now () in
  while !pairs = [] || Pool.now () -. start < seconds do
    Gc.full_major ();
    let untraced = run_pass rep in
    Trace.set_output (Some rep_trace);
    Gc.full_major ();
    let traced = run_pass rep in
    Trace.set_output None;
    pairs := (untraced, traced) :: !pairs
  done;
  let untraced = List.map fst !pairs and traced = List.map snd !pairs in
  let rep_trace_ok = summarize rep_trace in
  let trace_path = Filename.concat work_dir "trace.jsonl" in
  Trace.set_output (Some trace_path);
  let engine = engine_drill () in
  let construction = construction_drill programs_corpus in
  let harness, m_harness =
    call "layer.harness" [] (fun () ->
        let _, _, report = Security.sweep_stats_supervised ~jobs:1 programs_corpus in
        report)
  in
  let frontend, mem, (csv, drill_csv), replay = frontend_drill inputs in
  Trace.set_output None;
  let drill_checks =
    frontend_ok inputs ~drill_csv :: List.map (fun (_, run) -> construction_ok run) construction
  in
  let trace_ok = summarize trace_path in
  let spans = read_spans trace_path in
  let self id = self_time spans id in
  (* Engine stack, summed over the three fig6 workloads. *)
  let sum f = List.fold_left (fun acc x -> acc +. f x) 0. engine in
  let isum f = List.fold_left (fun acc x -> acc + f x) 0 engine in
  let insns = isum (fun ((_, m), _, _, _) -> (m.value : Runner.run).macro_insns) in
  let per_insn x = x /. float_of_int insns in
  let t_ins = sum (fun ((id, _), _, _, _) -> self id)
  and t_chex = sum (fun (_, (id, _), _, _) -> self id)
  and t_asan = sum (fun (_, _, (id, _), _) -> self id)
  and t_timed = sum (fun (_, _, _, (id, _)) -> self id) in
  let b_ins = sum (fun ((_, m), _, _, _) -> m.bytes)
  and b_chex = sum (fun (_, (_, m), _, _) -> m.bytes)
  and b_asan = sum (fun (_, _, (_, m), _) -> m.bytes)
  and b_timed = sum (fun (_, _, _, (_, m)) -> m.bytes) in
  let timed_run f = isum (fun (_, _, _, (_, m)) -> f (m.value : Runner.run)) in
  let timed_counter k = timed_run (fun r -> Counter.get r.counters k) in
  let timed_cycles = timed_run (fun r -> r.cycles) in
  let engine_ok =
    List.for_all
      (fun ((_, a), (_, b), (_, c), (_, d)) ->
        List.for_all
          (fun (m : Runner.run measured) -> m.value.outcome = Runner.Completed)
          [ a; b; c; d ])
      engine
  in
  (* Construction, per run. *)
  let runs = List.length construction in
  let per_run f =
    1e6 *. List.fold_left (fun acc (x, _) -> acc +. self (f x)) 0. construction
    /. float_of_int runs
  in
  (* Harness: one task span per exploit evaluation; dispatch is the
     sweep's time outside them. *)
  let within stage =
    match Hashtbl.find_opt spans harness with
    | None -> []
    | Some outer -> durations_within spans ~outer stage
  in
  let total = List.fold_left ( +. ) 0. in
  let evals = within "task" in
  let report = m_harness.value in
  let (parse, m_parse, uop_parse, m_uop_parse, n_uops), (access, m_access, n, mcounters, hier) =
    (frontend, mem)
  in
  let parse_records = float_of_int (n + n_uops) in
  let attempted, failed = count_ops (untraced @ traced) in
  let checks = engine_ok :: rep_trace_ok :: trace_ok :: drill_checks in
  let wall = fastest_ref in
  let ref_ms = 1e3 *. median (List.concat_map (fun r -> Array.to_list r.refs) untraced) in
  Printf.printf
    "%s traced: set-up %.3fs; %d pair(s), untraced %.1f ref, traced %.1f ref (reference \
     kernel %.3f ms); %d evaluation span(s)\n"
    w.name prep.seconds (List.length !pairs) (wall untraced) (wall traced) ref_ms
    (List.length evals);
  emit
    ~attempted:(attempted + List.length checks)
    ~failed:(failed + List.length (List.filter not checks))
    [
      metric "trace.overhead_ref" "ref" (wall traced -. wall untraced);
      metric "host.ref_ms" "ms" ref_ms;
      metric "harness.tasks" "count" (float_of_int report.Pool.tasks);
      metric "harness.chunks" "count" (float_of_int report.Pool.chunks);
      metric "harness.faults" "count"
        (float_of_int (report.crashed + report.timed_out + report.worker_lost));
      metric "harness.dispatch_s" "s" (total (within "sweep") -. total evals);
      metric "harness.eval_p50_us" "us" (1e6 *. percentile 0.50 evals);
      metric "harness.eval_p99_us" "us" (1e6 *. percentile 0.99 evals);
      metric "os.load_us" "us" (per_run (fun (id, _, _) -> id));
      metric "machine.create_us" "us" (per_run (fun (_, id, _) -> id));
      metric "core.monitor_create_us" "us" (per_run (fun (_, _, id) -> id));
      metric "engine.ns_per_insn" "ns" (1e9 *. per_insn t_ins);
      metric "engine.bytes_per_insn" "B" (per_insn b_ins);
      metric "monitor.chex86.ns_per_insn" "ns" (1e9 *. per_insn (t_chex -. t_ins));
      metric "monitor.chex86.bytes_per_insn" "B" (per_insn (b_chex -. b_ins));
      metric "monitor.chex86.injected_uops_per_insn" "uops"
        (ratio (timed_run (fun r -> r.uops_injected)) insns);
      metric "monitor.chex86.capcache_hit_ratio" "ratio"
        (ratio (timed_counter "capcache.hit")
           (timed_counter "capcache.hit" + timed_counter "capcache.miss"));
      metric "monitor.chex86.alias_pred_accuracy" "ratio"
        (ratio (timed_counter "alias.pred_correct") (timed_counter "alias.pred_events"));
      metric "asan.ns_per_insn" "ns" (1e9 *. per_insn (t_asan -. t_ins));
      metric "asan.bytes_per_insn" "B" (per_insn (b_asan -. b_ins));
      metric "timing.ns_per_insn" "ns" (1e9 *. per_insn (t_timed -. t_chex));
      metric "timing.bytes_per_insn" "B" (per_insn (b_timed -. b_chex));
      metric "pipeline.ipc" "insn/cycle" (ratio insns timed_cycles);
      metric "pipeline.squash_cycle_frac" "ratio"
        (ratio (timed_counter "pipeline.squash_cycles") timed_cycles);
      metric "mem.l1d_miss_ratio" "ratio"
        (ratio (timed_counter "l1d.miss") (timed_counter "l1d.hit" + timed_counter "l1d.miss"));
      metric "mem.l2_miss_ratio" "ratio"
        (ratio (timed_counter "l2.miss") (timed_counter "l2.hit" + timed_counter "l2.miss"));
      metric "frontend.parse_ns_per_record" "ns"
        (1e9 *. (self parse +. self uop_parse) /. parse_records);
      metric "frontend.parse_bytes_per_record" "B"
        ((m_parse.bytes +. m_uop_parse.bytes) /. parse_records);
      metric "frontend.csv_ns_per_record" "ns" (1e9 *. self csv /. float_of_int n);
      metric "mem.access_ns" "ns" (1e9 *. self access /. float_of_int n);
      metric "mem.access_bytes" "B" (m_access.bytes /. float_of_int n);
      metric "mem.l1d_hit_ratio" "ratio"
        (let g = Counter.get mcounters in
         ratio (g "l1d.hit") (g "l1d.hit" + g "l1d.miss"));
      metric "mem.l2_hit_ratio" "ratio"
        (let g = Counter.get mcounters in
         ratio (g "l2.hit") (g "l2.hit" + g "l2.miss"));
      metric "mem.writeback_bytes_per_access" "B"
        (ratio (Hierarchy.writeback_bytes hier) n);
      metric "pipeline.replay_ns_per_uop" "ns" (1e9 *. self replay /. float_of_int n_uops);
    ]

(* --- entry point ----------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload fig6-sweep|exploit-sweep|trace-replay --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      opts ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = opts [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let w =
    match List.find_opt (fun w -> w.name = get "workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seed = int "seed" and seconds = float_of_int (int "seconds") in
  let traced = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  (* Identical settings for every workload: the 8 MW minor heap of
     bench/main.ml, one job, the result store off (never configured),
     the stock Skylake preset. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  Pool.set_jobs 1;
  Runner.Store.disable ();
  Machine.Preset.set preset;
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  if traced then traced_run w ~seed ~seconds else timed_run w ~seed ~seconds
