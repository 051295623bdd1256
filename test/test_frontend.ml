(* Tests for the trace-driven frontend: cachetrace/uoptrace parsing
   (round-trips and line-numbered rejection), golden per-preset
   cachetrace summaries on the deterministic generator (which doubles
   as the "presets are measurably different" acceptance check), uoptrace
   replay sanity, and preset separation of result-store keys. *)

module Cachetrace = Chex86_frontend.Cachetrace
module Uoptrace = Chex86_frontend.Uoptrace
module Gen = Chex86_frontend.Gen
module Preset = Chex86_machine.Preset
module Hierarchy = Chex86_mem.Hierarchy
module Counter = Chex86_stats.Counter
module Runner = Chex86_harness.Runner
module W = Chex86_workloads.Workloads

let reader_of_string s =
  let lines = ref (String.split_on_char '\n' s) in
  fun () ->
    match !lines with
    | [] -> None
    | l :: tl ->
      lines := tl;
      Some l

(* Every test leaves the process-wide preset where it found it; the
   suite shares the process with other binaries' assumptions. *)
let with_preset p f =
  let saved = Preset.current () in
  Preset.set p;
  Fun.protect ~finally:(fun () -> Preset.set saved) f

(* --- cachetrace parsing --------------------------------------------------- *)

let test_cachetrace_parse_line () =
  (match Cachetrace.parse_line "R 0x1000" with
  | Ok (Some { Cachetrace.write = false; addr = 0x1000 }) -> ()
  | _ -> Alcotest.fail "R 0x1000 should parse");
  (match Cachetrace.parse_line "w 0xdeadbeef" with
  | Ok (Some { Cachetrace.write = true; addr = 0xdeadbeef }) -> ()
  | _ -> Alcotest.fail "lowercase w should parse");
  (match Cachetrace.parse_line "" with
  | Ok None -> ()
  | _ -> Alcotest.fail "blank line should be skipped");
  (match Cachetrace.parse_line "# comment" with
  | Ok None -> ()
  | _ -> Alcotest.fail "comment should be skipped");
  List.iter
    (fun bad ->
      match Cachetrace.parse_line bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should be rejected" bad)
    [ "X 0x1000"; "R"; "R 0x1000 extra"; "R zz"; "R -0x10" ]

let run_cachetrace preset text =
  with_preset preset (fun () ->
      let counters = Counter.create_group () in
      let hier = Hierarchy.create ~config:preset.Preset.hier counters in
      Cachetrace.run ~counters hier (reader_of_string text))

let test_cachetrace_error_line_numbers () =
  match run_cachetrace Preset.skylake "R 0x10\n# fine\nR oops\n" with
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "error %S names line 3" msg)
      true
      (String.length msg >= 7 && String.sub msg 0 7 = "line 3:")
  | Ok _ -> Alcotest.fail "malformed line should fail the run"

(* --- golden per-preset cachetrace summaries ------------------------------- *)

(* Pinned against the deterministic generator (seed 1): any change to
   cache geometry, replacement policy, latency accounting or writeback
   accounting shows up as a diff here.  The three presets must also be
   pairwise distinguishable on the same trace (ISSUE acceptance). *)
let golden_summaries =
  [
    ( "skylake",
      Preset.skylake,
      {
        Cachetrace.accesses = 5000;
        reads = 4000;
        writes = 1000;
        l1_hits = 2220;
        l2_hits = 270;
        misses = 2510;
        total_latency = 523680;
        mem_bytes = 190912;
        writeback_bytes = 30272;
      } );
    ( "nehalem",
      Preset.nehalem,
      {
        Cachetrace.accesses = 5000;
        reads = 4000;
        writes = 1000;
        l1_hits = 2227;
        l2_hits = 263;
        misses = 2510;
        total_latency = 632828;
        mem_bytes = 190912;
        writeback_bytes = 30272;
      } );
    ( "tiny",
      Preset.tiny,
      {
        Cachetrace.accesses = 5000;
        reads = 4000;
        writes = 1000;
        l1_hits = 1628;
        l2_hits = 376;
        misses = 2996;
        total_latency = 514884;
        mem_bytes = 246848;
        writeback_bytes = 55104;
      } );
  ]

let check_summary name (expected : Cachetrace.summary) (got : Cachetrace.summary) =
  let chk field e g = Alcotest.(check int) (name ^ ": " ^ field) e g in
  chk "accesses" expected.Cachetrace.accesses got.Cachetrace.accesses;
  chk "reads" expected.reads got.reads;
  chk "writes" expected.writes got.writes;
  chk "l1_hits" expected.l1_hits got.l1_hits;
  chk "l2_hits" expected.l2_hits got.l2_hits;
  chk "misses" expected.misses got.misses;
  chk "total_latency" expected.total_latency got.total_latency;
  chk "mem_bytes" expected.mem_bytes got.mem_bytes;
  chk "writeback_bytes" expected.writeback_bytes got.writeback_bytes

(* The checked-in per-access CSVs are what
   [chex86_sim trace-gen --seed 1 --count 2000 | chex86_sim trace --cpu P
   --csv] writes: one row per access with its hit level, so a cache-model
   change that moves a single access shows here, byte for byte. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_cachetrace_golden_csv () =
  let trace = Gen.cachetrace ~seed:1 ~n:2000 () in
  List.iter
    (fun (name, preset) ->
      let out = Printf.sprintf "trace_%s.out.csv" name in
      let result =
        Out_channel.with_open_bin out (fun csv ->
            with_preset preset (fun () ->
                let counters = Counter.create_group () in
                let hier = Hierarchy.create ~config:preset.Preset.hier counters in
                Cachetrace.run ~csv ~counters hier (reader_of_string trace)))
      in
      (match result with
      | Error msg -> Alcotest.failf "%s: generated trace rejected: %s" name msg
      | Ok _ -> ());
      let golden = Printf.sprintf "golden/trace_%s.csv" name in
      let expected = String.split_on_char '\n' (read_file golden)
      and got = String.split_on_char '\n' (read_file out) in
      let rec first_diff i = function
        | e :: es, g :: gs -> if e = g then first_diff (i + 1) (es, gs) else Some (i, e, g)
        | [], [] -> None
        | e :: _, [] -> Some (i, e, "<end of file>")
        | [], g :: _ -> Some (i, "<end of file>", g)
      in
      match first_diff 1 (expected, got) with
      | None -> ()
      | Some (line, e, g) ->
        Alcotest.failf "%s differs from %s at line %d: expected %S, got %S" out golden line e g)
    [ ("skylake", Preset.skylake); ("tiny", Preset.tiny) ]

let test_cachetrace_golden_per_preset () =
  let trace = Gen.cachetrace ~seed:1 ~n:5000 () in
  let summaries =
    List.map
      (fun (name, preset, expected) ->
        match run_cachetrace preset trace with
        | Error msg -> Alcotest.failf "%s: generated trace rejected: %s" name msg
        | Ok s ->
          if Sys.getenv_opt "CHEX86_FRONTEND_DUMP" <> None then
            Printf.printf
              "%s: l1_hits=%d l2_hits=%d misses=%d total_latency=%d mem_bytes=%d \
               writeback_bytes=%d\n"
              name s.Cachetrace.l1_hits s.Cachetrace.l2_hits s.Cachetrace.misses
              s.Cachetrace.total_latency s.Cachetrace.mem_bytes
              s.Cachetrace.writeback_bytes
          else check_summary name expected s;
          (name, s))
      golden_summaries
  in
  (* The acceptance criterion: at least three presets produce measurably
     different miss/latency summaries on the same trace. *)
  let fingerprint (_, (s : Cachetrace.summary)) =
    (Cachetrace.miss_rate s, Cachetrace.avg_latency s)
  in
  let rec pairwise_distinct = function
    | [] -> true
    | x :: rest ->
      List.for_all (fun y -> fingerprint x <> fingerprint y) rest
      && pairwise_distinct rest
  in
  Alcotest.(check bool)
    "three presets are pairwise distinguishable on the same trace" true
    (pairwise_distinct summaries)

(* --- uoptrace round-trip and rejection ------------------------------------ *)

let record_gen =
  let open QCheck.Gen in
  let pc = map (fun x -> x * 4) (int_range 0 1_000_000) in
  let addr = map (fun x -> x * 8) (int_range 0 10_000_000) in
  oneof
    [
      map2 (fun pc addr -> Uoptrace.load ~pc ~addr ~width:8) pc addr;
      map2 (fun pc addr -> Uoptrace.store ~pc ~addr ~width:4) pc addr;
      map (fun pc -> Uoptrace.alu ~pc) pc;
      map3
        (fun pc taken target -> Uoptrace.branch ~pc ~taken ~target)
        pc bool
        (map (fun x -> x * 4) (int_range 0 1_000_000));
      map (fun pc -> Uoptrace.nop ~pc) pc;
    ]

let qcheck_uoptrace_roundtrip =
  QCheck.Test.make ~name:"uoptrace writer/parser round-trip" ~count:200
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 50) record_gen))
    (fun records ->
      let buf = Buffer.create 1024 in
      Buffer.add_string buf Uoptrace.header;
      Buffer.add_char buf '\n';
      List.iter
        (fun r ->
          Buffer.add_string buf (Uoptrace.to_line r);
          Buffer.add_char buf '\n')
        records;
      match Uoptrace.read (reader_of_string (Buffer.contents buf)) with
      | Ok parsed -> parsed = records
      | Error _ -> false)

let test_uoptrace_rejects () =
  (match Uoptrace.read (reader_of_string "not json\n") with
  | Error msg -> Alcotest.(check bool) "bad header names line 1" true
                   (String.sub msg 0 7 = "line 1:")
  | Ok _ -> Alcotest.fail "bad header should be rejected");
  let with_header body = Uoptrace.header ^ "\n" ^ body in
  List.iter
    (fun (body, line) ->
      match Uoptrace.read (reader_of_string (with_header body)) with
      | Error msg ->
        let prefix = Printf.sprintf "line %d:" line in
        Alcotest.(check bool)
          (Printf.sprintf "%S rejected at %s (%s)" body prefix msg)
          true
          (String.length msg >= String.length prefix
          && String.sub msg 0 (String.length prefix) = prefix)
      | Ok _ -> Alcotest.failf "%S should be rejected" body)
    [
      ({|{"pc":4,"op":"load","addr":8}|}, 2);
      ({|{"pc":4,"op":"load","addr":8,"width":3}|}, 2);
      ({|{"op":"nop"}|}, 2);
      ({|{"pc":4,"op":"teleport"}|}, 2);
      ({|{"pc":4,"op":"branch","taken":true}|}, 2);
      ({|{"pc":4,"op":"nop"}|} ^ "\n# ok\n" ^ {|{"pc":-1,"op":"nop"}|}, 4);
    ]

let test_uoptrace_replay_counts () =
  with_preset Preset.skylake (fun () ->
      let counters = Counter.create_group () in
      let preset = Preset.current () in
      let hier = Hierarchy.create ~config:preset.Preset.hier counters in
      let pipeline =
        Chex86_machine.Pipeline.create ~config:preset.Preset.core hier counters
      in
      let records = Gen.uoptrace ~seed:7 ~n:500 () in
      let seen = ref 0 in
      Uoptrace.replay ~observe:(fun ~seq:_ _ ~cycles:_ -> incr seen) ~pipeline records;
      Alcotest.(check int) "observe sees every record" 500 !seen;
      Alcotest.(check bool) "pipeline accumulated cycles" true
        (Chex86_machine.Pipeline.cycles pipeline > 0))

(* --- store-key separation ------------------------------------------------- *)

let store_dir = "_test_frontend_store"

let rec rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let test_preset_separates_store_keys () =
  let w = W.find "swaptions" in
  let key_under p =
    with_preset p (fun () -> Runner.job_key (Runner.job ~scale:1 Runner.insecure w))
  in
  let k_sky = key_under Preset.skylake and k_neh = key_under Preset.nehalem in
  Alcotest.(check bool) "job keys differ across presets" true (k_sky <> k_neh);
  (* Same workload under two presets must produce two store entries and
     never serve one preset's result to the other. *)
  Runner.reset_for_tests ();
  rm_rf store_dir;
  Runner.Store.configure ~dir:store_dir;
  Fun.protect
    ~finally:(fun () ->
      Runner.Store.disable ();
      rm_rf store_dir;
      Runner.reset_for_tests ())
    (fun () ->
      let run_under p =
        with_preset p (fun () -> Runner.run_workload ~scale:1 Runner.insecure w)
      in
      let a = run_under Preset.skylake in
      let b = run_under Preset.tiny in
      let s = Runner.Store.stats () in
      Alcotest.(check int) "two store writes, one per preset" 2 s.Runner.Store.writes;
      Alcotest.(check int) "no false cross-preset hit" 0 s.Runner.Store.hits;
      Alcotest.(check bool) "presets simulate differently" true
        (a.Runner.cycles <> b.Runner.cycles))

let () =
  Alcotest.run "frontend"
    [
      ( "cachetrace",
        [
          Alcotest.test_case "parse_line" `Quick test_cachetrace_parse_line;
          Alcotest.test_case "error line numbers" `Quick
            test_cachetrace_error_line_numbers;
          Alcotest.test_case "golden per preset" `Quick
            test_cachetrace_golden_per_preset;
          Alcotest.test_case "golden per-access CSV" `Quick test_cachetrace_golden_csv;
        ] );
      ( "uoptrace",
        [
          QCheck_alcotest.to_alcotest qcheck_uoptrace_roundtrip;
          Alcotest.test_case "malformed rejection" `Quick test_uoptrace_rejects;
          Alcotest.test_case "replay counts" `Quick test_uoptrace_replay_counts;
        ] );
      ( "presets",
        [
          Alcotest.test_case "store-key separation" `Quick
            test_preset_separates_store_keys;
        ] );
    ]
