(* Ablation studies for the design choices DESIGN.md calls out.

   Each ablation switches off (or resizes) one mechanism of the
   prediction-driven CHEx86 and measures its contribution on the
   pointer-intensive subset of the workloads:

   - capability cache size sweep (the Fig 3 motivation: a handful of
     allocations are in use at a time);
   - alias-predictor stride field and non-reload blacklist;
   - the TLB alias-hosting filter (how many shadow lookups it saves);
   - the 32-entry alias victim cache;
   - context-sensitive scope (enforced text fraction vs micro-op bloat). *)

module Render = Chex86_stats.Render
module Counter = Chex86_stats.Counter
module W = Chex86_workloads.Workloads

let pointer_workloads = [ "perlbench"; "gcc"; "mcf"; "xalancbmk"; "leela"; "canneal" ]

let run ~tag variant name =
  Runner.run_workload ~tag ~scale:(Experiments.scale ()) (Runner.Chex variant)
    (W.find name)

let cap_cache_sweep () =
  let sizes = [ 16; 32; 64; 128; 256 ] in
  let rows =
    List.map
      (fun name ->
        name
        :: List.map
             (fun entries ->
               let variant =
                 Chex86.Variant.make ~cap_cache_entries:entries
                   Chex86.Variant.Microcode_prediction
               in
               let r = run ~tag:(Printf.sprintf "capsweep%d" entries) variant name in
               Render.percent
                 (Counter.ratio r.Runner.counters ~num:"capcache.miss" ~den:"capcache.hit"))
             sizes)
      pointer_workloads
  in
  String.concat "\n"
    [
      Render.banner "Ablation: capability cache size sweep (miss rate)";
      Render.table
        ~header:("Benchmark" :: List.map (fun s -> Printf.sprintf "%de" s) sizes)
        rows;
    ]

let predictor_ablation () =
  let configs =
    [
      ("full", Chex86.Variant.make Chex86.Variant.Microcode_prediction);
      ( "no stride",
        Chex86.Variant.make ~predictor_stride:false Chex86.Variant.Microcode_prediction );
      ( "no blacklist",
        Chex86.Variant.make ~predictor_blacklist:false Chex86.Variant.Microcode_prediction
      );
    ]
  in
  let rows =
    List.map
      (fun name ->
        name
        :: List.concat_map
             (fun (tag, variant) ->
               let r = run ~tag:("pred-" ^ tag) variant name in
               let c = r.Runner.counters in
               let events = Counter.get c "alias.pred_events" in
               let wrong =
                 Counter.get c "alias.pred_pna0"
                 + Counter.get c "alias.pred_p0an"
                 + Counter.get c "alias.pred_pman"
               in
               [
                 (if events = 0 then "n/a"
                  else Render.percent (float_of_int wrong /. float_of_int events));
                 string_of_int (Counter.get c "pipeline.uops_killed");
               ])
             configs)
      pointer_workloads
  in
  String.concat "\n"
    [
      Render.banner "Ablation: alias predictor features (mispredict rate / killed uops)";
      Render.table
        ~header:
          [
            "Benchmark";
            "full";
            "kills";
            "no-stride";
            "kills";
            "no-blacklist";
            "kills";
          ]
        rows;
    ]

let tlb_filter_ablation () =
  let rows =
    List.map
      (fun name ->
        let with_filter =
          run ~tag:"tlb-on" (Chex86.Variant.make Chex86.Variant.Microcode_prediction) name
        in
        let without =
          run ~tag:"tlb-off"
            (Chex86.Variant.make ~tlb_alias_filter:false
               Chex86.Variant.Microcode_prediction)
            name
        in
        let accesses (r : Runner.run) =
          Counter.get r.Runner.counters "aliascache.hit"
          + Counter.get r.Runner.counters "aliascache.victim_hit"
          + Counter.get r.Runner.counters "aliascache.miss"
        in
        let filtered = Counter.get with_filter.Runner.counters "alias.tlb_filtered" in
        [
          name;
          string_of_int (accesses with_filter);
          string_of_int (accesses without);
          string_of_int filtered;
          (let a = accesses without in
           if a = 0 then "n/a"
           else Render.percent (1. -. (float_of_int (accesses with_filter) /. float_of_int a)));
        ])
      pointer_workloads
  in
  String.concat "\n"
    [
      Render.banner "Ablation: TLB alias-hosting filter (alias-cache lookups saved)";
      Render.table
        ~header:[ "Benchmark"; "Lookups (filter)"; "Lookups (none)"; "TLB-filtered"; "Saved" ]
        rows;
    ]

let victim_cache_ablation () =
  let miss (r : Runner.run) =
    let hit = Counter.get r.Runner.counters "aliascache.hit"
    and victim = Counter.get r.Runner.counters "aliascache.victim_hit"
    and miss = Counter.get r.Runner.counters "aliascache.miss" in
    if hit + victim + miss < 200 then None
    else Some (float_of_int miss /. float_of_int (hit + victim + miss))
  in
  let rows =
    List.map
      (fun name ->
        let with_victim =
          run ~tag:"vc-on" (Chex86.Variant.make Chex86.Variant.Microcode_prediction) name
        in
        let without =
          run ~tag:"vc-off"
            (Chex86.Variant.make ~alias_victim_entries:0
               Chex86.Variant.Microcode_prediction)
            name
        in
        let opt = function Some r -> Render.percent r | None -> "n/a" in
        [ name; opt (miss with_victim); opt (miss without) ])
      pointer_workloads
  in
  String.concat "\n"
    [
      Render.banner "Ablation: 32-entry alias victim cache (alias-cache miss rate)";
      Render.table ~header:[ "Benchmark"; "with victim"; "no victim" ] rows;
    ]

(* Context sensitivity: enforce only a prefix of the text segment and
   watch injected micro-ops fall while allocations stay tracked. *)
let scope_sweep () =
  let scale = Experiments.scale () in
  let fractions = [ 0; 25; 50; 75; 100 ] in
  let rows =
    List.map
      (fun name ->
        let w = W.find name in
        let program = w.Chex86_workloads.Bench_spec.build ~scale in
        let text_len = 4 * Chex86_isa.Program.length program in
        name
        :: List.map
             (fun pct ->
               let hi = Chex86_isa.Program.text_base + (text_len * pct / 100) in
               let scope =
                 Chex86.Variant.Ranges [ (Chex86_isa.Program.text_base, hi) ]
               in
               let variant =
                 Chex86.Variant.make ~scope Chex86.Variant.Microcode_prediction
               in
               let r =
                 Runner.run_workload ~tag:(Printf.sprintf "scope%d" pct) ~scale
                   (Runner.Chex variant) w
               in
               Printf.sprintf "%.1f%%"
                 (100.
                 *. float_of_int r.Runner.uops_injected
                 /. float_of_int (max 1 r.Runner.uops)))
             fractions)
      [ "perlbench"; "mcf"; "canneal" ]
  in
  String.concat "\n"
    [
      Render.banner
        "Ablation: context-sensitive scope (injected uop share vs enforced text fraction)";
      Render.table
        ~header:("Benchmark" :: List.map (fun p -> Printf.sprintf "%d%%" p) fractions)
        rows;
      "(allocations are tracked at every scope; only check injection is scoped)";
    ]

let all =
  [
    ("ablation-capcache", cap_cache_sweep);
    ("ablation-predictor", predictor_ablation);
    ("ablation-tlb", tlb_filter_ablation);
    ("ablation-victim", victim_cache_ablation);
    ("ablation-scope", scope_sweep);
  ]
