(** Unified runner over protection configurations, with memoized
    workload runs shared between bench targets. *)

type config = Chex of Chex86.Variant.t | Asan

val insecure : config
val prediction : config
val config_name : config -> string

type outcome =
  | Completed
  | Blocked of Chex86.Violation.kind
  | Aborted of string  (** allocator integrity abort *)
  | Faulted of string
  | Budget_exhausted

type run = {
  outcome : outcome;
  macro_insns : int;
  uops : int;
  uops_injected : int;
  uops_killed : int;
  cycles : int;
  counters : Chex86_stats.Counter.group;
  shadow_bytes : int;
  resident_bytes : int;
  mem_bytes : int;
  pwned : bool;  (** the exploit pwned flag, read back from guest memory *)
  profile : Chex86_os.Heap_profile.report option;
}

(** [heap] selects the allocator personality (default [Glibc]); the
    ASan baseline ignores it. *)
val run_program :
  ?timing:bool ->
  ?max_insns:int ->
  ?profile:bool ->
  ?configure:(Chex86.Monitor.t -> unit) ->
  ?heap:Chex86_os.Allocator.personality ->
  config ->
  Chex86_isa.Program.t ->
  run

(** Execute on the SMP driver ({!Chex86.Smp.run}): one hardware thread
    per entry label in [threads], interleaved round-robin [quantum]
    macro-ops at a time.  Uop and memory-traffic fields are reported as
    0 (per-engine notions); an [Asan] config yields [Faulted] — the
    ASan baseline has no SMP monitor. *)
val run_threads :
  ?timing:bool ->
  ?max_insns:int ->
  ?heap:Chex86_os.Allocator.personality ->
  quantum:int ->
  threads:string list ->
  config ->
  Chex86_isa.Program.t ->
  run

(** {2 On-disk result store}

    Checkpoint/resume and shared warm cache for sweeps: memoized runs
    are spilled under a cache directory ([_chex86_cache/] by default,
    [--cache-dir] on the CLIs), keyed by the memo key plus a content
    digest of the built program, so an interrupted invocation resumes
    where it stopped, repeated invocations skip re-simulation, and
    concurrent processes share one cache. Disabled until [configure]d.

    v2 layout: entries live in [objects/<shard>/], sharded by the first
    byte of the entry's content digest; legacy flat v1 entries are read
    through and migrated on first hit. Publish is an O_EXCL tmp write
    followed by an atomic link/rename, so readers never observe partial
    entries and two processes racing on one key are benign (the loser
    counts [race_lost] — a hit in effect). Corrupt entries are
    quarantined into [quarantine/] with a warning and re-simulated —
    never a crash. A [--store-max-bytes] budget evicts oldest-first,
    never touching entries the in-flight sweep has pinned. On
    ENOSPC/EROFS writes degrade to memo-only so the sweep completes. *)
module Store : sig
  val default_dir : string
  (** ["_chex86_cache"] *)

  (** Enable the store; [dir] is created on first write. Clears pins
      and resets the degradation latch. *)
  val configure : dir:string -> unit

  val disable : unit -> unit
  val enabled : unit -> bool
  val dir : unit -> string option

  (** Size budget for eviction; [None] (the default) never evicts. *)
  val set_max_bytes : int option -> unit

  val max_bytes : unit -> int option

  type stats = {
    hits : int;
    misses : int;
    writes : int;  (** entries this process published (won the race) *)
    discarded : int;  (** corrupt entries rejected on load *)
    tmp_reclaimed : int;
        (** stale [.tmp-<pid>-*] files swept, guarded by writer-pid
            liveness {e and} a safety age (pid reuse) *)
    quarantined : int;  (** corrupt entries moved into [quarantine/] *)
    race_lost : int;  (** publishes beaten by a concurrent writer *)
    evicted : int;  (** entries removed by the size budget *)
    migrated : int;  (** v1 entries rewritten into the v2 tree *)
    write_errors : int;  (** failed entry writes (any cause) *)
    degraded : bool;  (** store is memo-only after ENOSPC/EROFS *)
  }

  val stats : unit -> stats
  val reset_stats : unit -> unit

  (** Direct entry IO, exposed for the executables and tests. [key] is
      the memo key, [digest] the program digest. *)
  val load : key:string -> digest:string -> run option

  val save : key:string -> digest:string -> run -> unit

  (** [(v1 path, v2 path)] for an entry under the configured directory;
      [None] when the store is disabled. *)
  val entry_paths : key:string -> digest:string -> (string * string) option

  (** Forget the entries pinned by this process, making them eviction
      candidates again (tests / end of sweep). *)
  val clear_pins : unit -> unit

  (** {3 Offline maintenance}

      These operate on an explicit [dir] and do not require the store
      to be [configure]d; [chex86_sim store stats|gc|fsck] wraps them. *)

  type disk_stats = {
    d_entries : int;
    d_bytes : int;
    d_v1 : int;  (** legacy flat entries not yet migrated *)
    d_tmp : int;
    d_quarantine : int;
  }

  val disk_stats : dir:string -> disk_stats

  type gc_report = {
    g_entries : int;  (** entries remaining after the pass *)
    g_bytes : int;  (** bytes remaining after the pass *)
    g_evicted : int;
    g_evicted_bytes : int;
    g_tmp_reclaimed : int;
  }

  (** Reclaim stale tmp files, then evict oldest-first to [?max_bytes]
      (defaults to the process-wide budget; no budget = no eviction). *)
  val gc : dir:string -> ?max_bytes:int -> unit -> gc_report

  type fsck_issue = { f_path : string; f_problem : string }

  type fsck_report = {
    f_scanned : int;  (** published entries examined *)
    f_ok : int;  (** entries that parsed and verified *)
    f_v1 : int;  (** of which legacy v1 *)
    f_bytes : int;  (** bytes across valid entries *)
    f_tmp_pending : int;  (** young tmp files left in place *)
    f_tmp_reclaimed : int;  (** stale tmp files removed by this pass *)
    f_quarantined : int;  (** corrupt entries moved aside by this pass *)
    f_quarantine_backlog : int;  (** files already in [quarantine/] *)
    f_issues : fsck_issue list;  (** invariant violations *)
  }

  (** Verify every store invariant the crash model promises: entries
      parse and digest-verify, v2 entries sit in their named shard, no
      v1 entries inside [objects/], no foreign files. Torn tmp files
      are {e not} violations (they are what a SIGKILL leaves); stale
      ones are reclaimed, corrupt and misplaced entries quarantined, so
      a second run comes back clean. *)
  val fsck : dir:string -> fsck_report

  val fsck_clean : fsck_report -> bool
  val fsck_json : fsck_report -> Chex86_stats.Json.t
end

(** Content digest of a built program; part of the store key, so
    editing a workload builder invalidates its cached runs. *)
val program_digest : Chex86_isa.Program.t -> string

(** Memoized on (workload, config, scale, timing, profile, tag). The
    memo is domain-safe; repeated calls return the same [run] value.
    On a memo miss the enabled {!Store} is consulted before simulating
    (except for runs with a [?configure] hook, whose effects a stored
    result can't capture). *)
val run_workload :
  ?tag:string ->
  ?timing:bool ->
  ?profile:bool ->
  ?configure:(Chex86.Monitor.t -> unit) ->
  scale:int ->
  config ->
  Chex86_workloads.Bench_spec.t ->
  run

(** [run_workload] that reports instead of simulating when a
    supervised prefetch already classified the job as faulted, so
    figure assembly can render an explicit FAULTED / TIMEOUT cell. *)
val run_workload_result :
  ?tag:string ->
  ?timing:bool ->
  ?profile:bool ->
  ?configure:(Chex86.Monitor.t -> unit) ->
  scale:int ->
  config ->
  Chex86_workloads.Bench_spec.t ->
  (run, Pool.fault) result

(** A (workload x config) simulation task for the parallel prefetcher;
    the fields mirror [run_workload]'s memo key. *)
type job

val job :
  ?tag:string ->
  ?timing:bool ->
  ?profile:bool ->
  scale:int ->
  config ->
  Chex86_workloads.Bench_spec.t ->
  job

val job_key : job -> string

(** Register the ["bench"] remote task kind (workload lookup by name,
    memo-key fields via a marshalled arg) so prefetches can run in
    worker processes; called by the worker binary at startup and by the
    supervisor before routing. Idempotent. *)
val register_remote : unit -> unit

(** Simulate the not-yet-memoized jobs through {!Pool.run} ([?jobs]
    defaults to [Pool.jobs ()], [?batch_size] to the process-wide knob
    / auto-sizing, [?retries] / [?task_timeout] to the supervision
    knobs) and publish the results into the memo in job order, so the
    serial figure-assembly code then hits the memo. Results are
    bit-identical to running the same jobs serially, at any batch size.
    A crashing or wedged job is recorded in the fault table (see
    {!run_workload_result} / {!faulted_jobs}) and the rest of the sweep
    — including the faulted job's chunk-mates — completes. Jobs already
    faulted are not retried by later prefetches sharing the key. When
    workers are configured ({!Remote.enabled}) the jobs run in worker
    processes instead ([?jobs] is ignored); a lost worker surfaces as
    [Pool.Worker_lost] on the in-flight job. *)
val prefetch_supervised :
  ?jobs:int ->
  ?batch_size:int ->
  ?retries:int ->
  ?task_timeout:float ->
  job list ->
  Pool.fault_report

(** Every job a supervised prefetch classified as faulted this process,
    as [(job key, fault)], sorted by key. *)
val faulted_jobs : unit -> (string * Pool.fault) list

(** Test hook: forget every memoized run and recorded fault (and reset
    store stats) so tests can exercise the cold path repeatedly. *)
val reset_for_tests : unit -> unit
