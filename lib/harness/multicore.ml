(* Multicore experiment: the paper's multithreaded PARSEC setting with
   cross-core capability/alias-cache invalidations (§IV-C / §V-C).

   Runs the canneal-style multithreaded workload on 1/2/4 hardware
   threads under the insecure baseline and the prediction-driven CHEx86,
   reporting cycle counts (slowest core), the CHEx86 overhead at each
   core count, and the invalidation traffic the protection generates. *)

module Render = Chex86_stats.Render

let run_one ~threads variant =
  let scale = Experiments.scale () in
  let program = Chex86_workloads.Parallel.canneal_mt ~threads ~scale in
  Chex86.Smp.run ~variant ~threads:(Chex86_workloads.Parallel.thread_labels threads)
    program

let report () =
  let rows =
    List.map
      (fun threads ->
        let base = run_one ~threads (Chex86.Variant.make Chex86.Variant.Insecure) in
        let pred = run_one ~threads Chex86.Variant.default in
        let overhead =
          100.
          *. (float_of_int pred.Chex86.Smp.cycles /. float_of_int base.Chex86.Smp.cycles
             -. 1.)
        in
        [
          string_of_int threads;
          string_of_int base.Chex86.Smp.cycles;
          string_of_int pred.Chex86.Smp.cycles;
          Printf.sprintf "%.1f%%" overhead;
          string_of_int pred.Chex86.Smp.cap_invalidations;
          string_of_int pred.Chex86.Smp.alias_invalidations;
        ])
      [ 1; 2; 4 ]
  in
  String.concat "\n"
    [
      Render.banner
        "Multicore: canneal-mt with cross-core invalidations (Sections IV-C / V-C)";
      Render.table
        ~header:
          [
            "Threads";
            "Cycles (insecure)";
            "Cycles (CHEx86)";
            "Overhead";
            "Cap invalidations";
            "Alias invalidations";
          ]
        rows;
      "(cycles = slowest core; invalidations are deliveries to remote caches)";
    ]
