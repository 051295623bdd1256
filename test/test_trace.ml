(* Tests for the structured tracing/metrics layer (Chex86_harness.Trace).

   The load-bearing property is NO PERTURBATION: a traced sweep's merged
   stats must be bit-identical to the untraced run at the same (jobs,
   batch) geometry — tracing observes the sweep, it never participates
   in it.  On top of that: the emitted JSONL must be well-formed (every
   line parses, every end has a matching begin, parents close after
   children — [Trace.summarize_file] validates all three), worker span
   streams must stitch into the supervisor's file over the socket path,
   and the --metrics accumulator must dump the merged totals. *)

module Pool = Chex86_harness.Pool
module Remote = Chex86_harness.Remote
module Runner = Chex86_harness.Runner
module Trace = Chex86_harness.Trace
module Faultinject = Chex86_harness.Faultinject
module Counter = Chex86_stats.Counter
module Histogram = Chex86_stats.Histogram
module Json = Chex86_stats.Json

let selftest_fn =
  match Remote.find_kind Remote.selftest_kind with
  | Some fn -> fn
  | None -> Alcotest.fail "selftest kind not registered"

let tasks_n n = Array.init n (fun i -> Printf.sprintf "task-%d" i)

let sweep ?retries ~jobs ~batch_size tasks =
  Pool.run ~jobs ~batch_size ?retries ~key:Fun.id
    (fun key ctx -> selftest_fn ~key ~arg:"8" ctx)
    tasks

let with_trace_file f =
  let path = Filename.temp_file "chex86_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Trace.set_output None;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let counters_list (s : Pool.merged_stats) = Counter.to_list s.Pool.counters

(* Naive substring search; the test stanza has no dependency on Str. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let hists_list (s : Pool.merged_stats) =
  List.map
    (fun (n, h) -> (n, Histogram.snapshot_to_list (Histogram.snapshot h)))
    s.Pool.histograms

(* --- off by default -------------------------------------------------------- *)

let test_off_by_default () =
  Trace.set_output None;
  Alcotest.(check bool) "tracing off" false (Trace.on ());
  Alcotest.(check int) "span_begin returns the null id" 0
    (Trace.span_begin ~stage:"task" [ ("key", "k") ]);
  (* Null-id end is the documented no-op, not an error. *)
  Trace.span_end 0

(* --- no perturbation: traced == untraced, bit for bit ---------------------- *)

(* Same geometry with and without tracing: everything must match,
   including the scheduling-dependent [pool.chunks] (the geometry is
   identical, only the observer differs). *)
let prop_traced_untraced_identical =
  QCheck.Test.make ~count:8 ~name:"traced sweep bit-identical to untraced"
    QCheck.(pair (int_range 1 3) (int_range 1 5))
    (fun (jobs, batch_size) ->
      let tasks = tasks_n 9 in
      Trace.set_output None;
      let ur, ustats, _ = sweep ~jobs ~batch_size tasks in
      let tr, tstats =
        with_trace_file (fun path ->
            Trace.set_output (Some path);
            let tr, tstats, _ = sweep ~jobs ~batch_size tasks in
            (tr, tstats))
      in
      ur = tr
      && counters_list ustats = counters_list tstats
      && hists_list ustats = hists_list tstats)

(* Retries in the picture: the retry instants and per-attempt spans must
   not leak into the merged stats either. *)
let test_traced_untraced_with_retries () =
  let tasks = tasks_n 8 in
  let plan =
    Faultinject.of_list
      [ ("task-2", Faultinject.crash ~attempts:1 ()); ("task-5", Faultinject.crash ()) ]
  in
  let run () =
    Faultinject.arm plan;
    Fun.protect ~finally:Faultinject.disarm (fun () ->
        sweep ~retries:2 ~jobs:2 ~batch_size:3 tasks)
  in
  Trace.set_output None;
  let ur, ustats, ureport = run () in
  with_trace_file (fun path ->
      Trace.set_output (Some path);
      let tr, tstats, treport = run () in
      Trace.set_output None;
      Alcotest.(check bool) "results equal" true (ur = tr);
      Alcotest.(check (list (pair string int)))
        "counters equal" (counters_list ustats) (counters_list tstats);
      Alcotest.(check bool) "histograms equal" true
        (hists_list ustats = hists_list tstats);
      Alcotest.(check int) "same retries used" ureport.Pool.retries_used
        treport.Pool.retries_used;
      (* The trace must have recorded the retry instants. *)
      let lines = read_lines path in
      Alcotest.(check bool) "retry instants present" true
        (List.exists
           (fun l ->
             match Json.of_string l with
             | Ok v ->
               Option.bind (Json.member "stage" v) Json.to_string_opt
               = Some "retry"
             | Error _ -> false)
           lines))

(* --- JSONL well-formedness -------------------------------------------------- *)

let test_jsonl_well_formed () =
  with_trace_file (fun path ->
      Trace.set_output (Some path);
      ignore (sweep ~jobs:3 ~batch_size:2 (tasks_n 10));
      Trace.set_output None;
      let lines = read_lines path in
      Alcotest.(check bool) "trace is non-empty" true (List.length lines > 0);
      List.iter
        (fun line ->
          match Json.of_string line with
          | Error msg -> Alcotest.failf "unparseable line %S: %s" line msg
          | Ok v ->
            List.iter
              (fun field ->
                if Json.member field v = None then
                  Alcotest.failf "line %S missing %S" line field)
              [ "ev"; "t"; "src" ])
        lines;
      (* summarize_file validates the structural contract: every end has
         a begin, parents close after children. *)
      match Trace.summarize_file path with
      | Error msg -> Alcotest.failf "summary rejected a real trace: %s" msg
      | Ok rendered ->
        List.iter
          (fun stage ->
            Alcotest.(check bool)
              (Printf.sprintf "summary mentions %S" stage)
              true (contains rendered stage))
          [ "chunk"; "task"; "main" ])

let write_file path lines =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> List.iter (fun l -> output_string oc (l ^ "\n")) lines)

let test_summary_rejects_malformed () =
  let path = Filename.temp_file "chex86_trace_bad" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* An end without a begin is a structural error. *)
      write_file path [ {|{"ev":"e","id":7,"t":1.0,"src":"main"}|} ];
      (match Trace.summarize_file path with
      | Ok _ -> Alcotest.fail "orphan end accepted"
      | Error _ -> ());
      (* Unparseable JSON mid-stream is an error: only the FINAL line
         may be garbage (a crash can tear exactly one trailing write). *)
      write_file path
        [ "{not json"; {|{"ev":"i","t":1.0,"src":"main","stage":"x"}|} ];
      (match Trace.summarize_file path with
      | Ok _ -> Alcotest.fail "mid-stream parse error accepted"
      | Error _ -> ());
      (* A parent closing before its child is an error. *)
      write_file path
        [
          {|{"ev":"b","id":1,"t":1.0,"src":"main","stage":"chunk"}|};
          {|{"ev":"b","id":2,"par":1,"t":1.1,"src":"main","stage":"task"}|};
          {|{"ev":"e","id":1,"t":1.2,"src":"main"}|};
          {|{"ev":"e","id":2,"t":1.3,"src":"main"}|};
        ];
      (match Trace.summarize_file path with
      | Ok _ -> Alcotest.fail "parent-closed-before-child accepted"
      | Error _ -> ());
      (* An unclosed begin is NOT an error (a killed worker loses its
         tail); it is reported as unclosed. *)
      write_file path [ {|{"ev":"b","id":1,"t":1.0,"src":"main","stage":"task"}|} ];
      (match Trace.summarize_file path with
      | Error msg -> Alcotest.failf "unclosed span rejected: %s" msg
      | Ok rendered ->
        Alcotest.(check bool) "reported unclosed" true (contains rendered "1 unclosed"));
      (* A truncated FINAL line is NOT an error either (a SIGKILL'd
         writer tears at most its last buffered write): the summary
         skips it, reports it, and still renders the valid prefix. *)
      write_file path
        [
          {|{"ev":"b","id":1,"t":1.0,"src":"main","stage":"task"}|};
          {|{"ev":"e","id":1,"t":1.5,"src":"main"}|};
          {|{"ev":"e","id":1,"t":2.|};
        ];
      match Trace.summarize_file path with
      | Error msg -> Alcotest.failf "truncated final line rejected: %s" msg
      | Ok rendered ->
        Alcotest.(check bool) "notes the truncation" true
          (contains rendered "truncated final line");
        Alcotest.(check bool) "valid prefix still summarized" true
          (contains rendered "task"))

(* --- worker-span stitching over the socket path ----------------------------- *)

let worker_exe_for_tests () =
  let dir = Filename.dirname Sys.executable_name in
  let candidate =
    Filename.concat dir (Filename.concat ".." (Filename.concat "bin" "chex86_worker.exe"))
  in
  if Sys.file_exists candidate then Some candidate else None

let test_worker_span_stitching () =
  match worker_exe_for_tests () with
  | None -> Alcotest.skip ()
  | Some _ ->
    with_trace_file (fun path ->
        Trace.set_output (Some path);
        let tasks = tasks_n 8 in
        let _, rstats, report =
          Remote.sweep ~spec:(Remote.Spawn 2) ~batch_size:2
            ~kind:Remote.selftest_kind ~key:Fun.id
            ~arg:(fun _ -> "8")
            tasks
        in
        Trace.set_output None;
        Alcotest.(check int) "no faults" 0 (List.length report.Pool.task_faults);
        Alcotest.(check int) "not degraded" 0
          (Counter.get rstats.Pool.counters "remote.degraded");
        let lines = read_lines path in
        let srcs =
          List.filter_map
            (fun l ->
              match Json.of_string l with
              | Ok v -> Option.bind (Json.member "src" v) Json.to_string_opt
              | Error _ -> None)
            lines
        in
        Alcotest.(check bool) "supervisor events present" true
          (List.mem "main" srcs);
        Alcotest.(check bool) "worker events stitched in" true
          (List.exists (fun s -> String.length s > 1 && s.[0] = 'w') srcs);
        (* Worker task spans carry through with their own chunk parents;
           the merged file must still satisfy the structural contract. *)
        let worker_task_spans =
          List.exists
            (fun l ->
              match Json.of_string l with
              | Ok v ->
                let src = Option.bind (Json.member "src" v) Json.to_string_opt in
                let stage = Option.bind (Json.member "stage" v) Json.to_string_opt in
                (match src with
                | Some s -> String.length s > 1 && s.[0] = 'w' && stage = Some "task"
                | None -> false)
              | Error _ -> false)
            lines
        in
        Alcotest.(check bool) "worker task spans present" true worker_task_spans;
        match Trace.summarize_file path with
        | Error msg -> Alcotest.failf "stitched trace rejected: %s" msg
        | Ok rendered ->
          (* Per-source utilization must list the workers. *)
          Alcotest.(check bool) "summary lists a worker source" true
            (String.split_on_char '\n' rendered
            |> List.exists (fun l ->
                   String.length l > 1 && l.[0] = 'w' && l.[1] >= '0' && l.[1] <= '9')))

(* --- metrics export --------------------------------------------------------- *)

let test_metrics_export () =
  let path = Filename.temp_file "chex86_metrics" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Trace.set_metrics None;
      Trace.reset_metrics_for_tests ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Trace.reset_metrics_for_tests ();
      Trace.set_metrics (Some path);
      let tasks = tasks_n 6 in
      let _, stats, _ = sweep ~jobs:2 ~batch_size:2 tasks in
      Trace.write_metrics ();
      let body = String.concat "\n" (read_lines path) in
      match Json.of_string body with
      | Error msg -> Alcotest.failf "metrics file unparseable: %s" msg
      | Ok v ->
        let counter name =
          Option.bind (Json.member "counters" v) (Json.member name)
          |> Fun.flip Option.bind Json.to_int_opt
        in
        Alcotest.(check (option int))
          "selftest.runs matches merged stats"
          (Some (Counter.get stats.Pool.counters "selftest.runs"))
          (counter "selftest.runs");
        Alcotest.(check (option int))
          "pool.tasks exported" (Some 6) (counter "pool.tasks");
        let draws_n =
          Option.bind (Json.member "histograms" v) (Json.member "selftest.draws")
          |> Fun.flip Option.bind (Json.member "n")
          |> Fun.flip Option.bind Json.to_int_opt
        in
        Alcotest.(check (option int))
          "histogram mass matches merged stats"
          (Some
             (Histogram.count (List.assoc "selftest.draws" stats.Pool.histograms)))
          draws_n)

(* A local figure prefetch exports the same [pool.*] counters as the
   worker path (Remote.sweep): one job, one [pool.tasks]. *)
let test_metrics_export_local_prefetch () =
  let path = Filename.temp_file "chex86_metrics" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Trace.set_metrics None;
      Trace.reset_metrics_for_tests ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Trace.reset_metrics_for_tests ();
      Trace.set_metrics (Some path);
      let job =
        Runner.job ~tag:"metrics-export" ~timing:false ~scale:1 Runner.insecure
          (Chex86_workloads.Workloads.find "mcf")
      in
      let report = Runner.prefetch_supervised ~jobs:1 [ job ] in
      Alcotest.(check int) "job ran" 1 report.Pool.ok;
      Trace.write_metrics ();
      match Json.of_string (String.concat "\n" (read_lines path)) with
      | Error msg -> Alcotest.failf "metrics file unparseable: %s" msg
      | Ok v ->
        Alcotest.(check (option int))
          "pool.tasks exported" (Some 1)
          (Option.bind (Json.member "counters" v) (Json.member "pool.tasks")
          |> Fun.flip Option.bind Json.to_int_opt))

let () =
  Alcotest.run "trace"
    [
      ( "core",
        [
          Alcotest.test_case "off by default" `Quick test_off_by_default;
          QCheck_alcotest.to_alcotest prop_traced_untraced_identical;
          Alcotest.test_case "traced == untraced with retries" `Quick
            test_traced_untraced_with_retries;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "well-formed" `Quick test_jsonl_well_formed;
          Alcotest.test_case "malformed rejected" `Quick test_summary_rejects_malformed;
        ] );
      ( "remote",
        [
          Alcotest.test_case "worker span stitching" `Quick test_worker_span_stitching;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "export" `Quick test_metrics_export;
          Alcotest.test_case "local prefetch exports pool counters" `Quick
            test_metrics_export_local_prefetch;
        ] );
    ]
