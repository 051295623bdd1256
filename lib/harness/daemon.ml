(* chex86d's engine: a select-driven control loop (newline-delimited
   JSON over a loopback TCP port) in the calling domain, one scheduler
   domain pulling admitted jobs off a bounded queue and running them
   through Remote.sweep (worker fleet) or the in-process Pool — both
   bit-identical to a serial run — and a write-ahead job journal under
   <store-root>/daemon/journal/ with the same O_EXCL-tmp +
   atomic-publish discipline as the result store, so a SIGKILL at any
   point of the job protocol loses no acknowledged work and duplicates
   none.

   Crash model (the chaos soak in test/daemon_soak.ml drives all of
   these through the Faultinject points):

   - killed before the .job record publishes → the submit was never
     acked; the client resubmits under the same id (idempotent).
   - killed after .job, before/while running → replay re-enqueues from
     the journal and the job runs from attempt 0 (deterministic
     re-seeding makes the results byte-identical).
   - killed after the .done record publishes → replay re-serves the
     recorded results; the job body never re-runs (exactly-once).
   - a torn record (crash mid-write) fails its digest check on replay
     and is quarantined as *.corrupt, never trusted. *)

module Json = Chex86_stats.Json

let warn fmt = Printf.ksprintf (fun m -> Printf.eprintf "chex86d: %s\n%!" m) fmt

(* --- layout under the store root ------------------------------------------ *)

let daemon_dirname = "daemon"
let daemon_dir ~store_root = Filename.concat store_root daemon_dirname
let journal_dir ~store_root = Filename.concat (daemon_dir ~store_root) "journal"
let lock_path ~store_root = Filename.concat (daemon_dir ~store_root) "lock"

let rec ensure_dir d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    ensure_dir (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | s -> Some s
        | exception End_of_file -> None)

(* --- the store lock ------------------------------------------------------- *)

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception _ -> true

let lock_holder ~store_root =
  match read_file (lock_path ~store_root) with
  | None -> None
  | Some content -> (
    let line = match String.index_opt content '\n' with
      | Some i -> String.sub content 0 i
      | None -> content
    in
    match int_of_string_opt (String.trim line) with
    | Some pid when pid_alive pid -> Some pid
    | _ -> None)

(* Take the lock or say who holds it.  A stale lock (dead pid) is
   reclaimed; two daemons racing for a fresh lock are serialized by the
   O_EXCL create. *)
let acquire_lock ~store_root =
  let path = lock_path ~store_root in
  let write_self () =
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644 in
    let line = string_of_int (Unix.getpid ()) ^ "\n" in
    ignore (Unix.write_substring fd line 0 (String.length line));
    Unix.close fd
  in
  let rec attempt retries =
    match write_self () with
    | () -> Ok ()
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> (
      match lock_holder ~store_root with
      | Some pid -> Error (Printf.sprintf "live daemon (pid %d) already holds %s" pid path)
      | None ->
        (* Stale: the writer is dead.  Reclaim and retry once. *)
        (try Sys.remove path with Sys_error _ -> ());
        if retries > 0 then attempt (retries - 1)
        else Error (Printf.sprintf "cannot reclaim stale lock %s" path))
    | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "cannot take %s: %s" path (Unix.error_message e))
  in
  attempt 1

let release_lock ~store_root =
  try Sys.remove (lock_path ~store_root) with Sys_error _ -> ()

(* --- journal records ------------------------------------------------------ *)

(* One record per file:
     chex86d-journal-v1 <md5-hex-of-payload> <payload-bytes>\n
     <payload JSON>\n
   published as .tmp-<pid>-<name> + atomic link (rename fallback), so a
   record either exists whole-and-verified or is quarantined. *)

let record_magic = "chex86d-journal-v1"

let encode_record payload =
  Printf.sprintf "%s %s %d\n%s\n" record_magic
    (Digest.to_hex (Digest.string payload))
    (String.length payload) payload

let decode_record content =
  match String.index_opt content '\n' with
  | None -> Error "no header line"
  | Some nl -> (
    match String.split_on_char ' ' (String.sub content 0 nl) with
    | [ magic; hex; len_s ] when magic = record_magic -> (
      match int_of_string_opt len_s with
      | None -> Error "unparseable length"
      | Some len ->
        let start = nl + 1 in
        if len < 0 || String.length content < start + len then Error "truncated payload"
        else
          let payload = String.sub content start len in
          if Digest.to_hex (Digest.string payload) <> String.lowercase_ascii hex then
            Error "digest mismatch"
          else (
            match Json.of_string payload with
            | Ok v -> Ok v
            | Error e -> Error ("unparseable JSON: " ^ e)))
    | _ -> Error "bad header")

let jstr k v = Option.bind (Json.member k v) Json.to_string_opt
let jint k v = Option.bind (Json.member k v) Json.to_int_opt

let jbool k v =
  match Json.member k v with Some (Json.Bool b) -> Some b | _ -> None

let jlist k v = match Json.member k v with Some (Json.List l) -> Some l | _ -> None

(* Journal filenames carry the md5 of the job id, not the id itself
   (ids are client-chosen free text); the id lives inside the record. *)
let job_basename id = Digest.to_hex (Digest.string id)

(* Write-and-publish with the store's crash discipline.  [point] is the
   Faultinject gate: kill/crash/delay happen inside [at_point]; ENOSPC
   comes back as a raised Unix_error (the caller degrades the journal);
   a torn directive truncates the artifact before publishing, which is
   exactly the on-disk state a crash between write and publish-rename
   can leave on a non-atomic filesystem. *)
let write_record ~point dir name payload =
  let torn =
    match Faultinject.at_point point with
    | Some (Faultinject.Errno e) -> raise (Unix.Unix_error (e, "write", name))
    | Some (Faultinject.Torn_artifact n) -> Some n
    | None -> None
  in
  let content =
    let c = encode_record payload in
    match torn with
    | Some n when n < String.length c -> String.sub c 0 (max 0 n)
    | _ -> c
  in
  let path = Filename.concat dir name in
  let tmp = Filename.concat dir (Printf.sprintf ".tmp-%d-%s" (Unix.getpid ()) name) in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644 in
  (match
     let n = String.length content in
     let rec go off = if off < n then go (off + Unix.write_substring fd content off (n - off)) in
     go 0
   with
  | () -> Unix.close fd
  | exception e ->
    Unix.close fd;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  (match Unix.link tmp path with
  | () -> ( try Sys.remove tmp with Sys_error _ -> ())
  | exception Unix.Unix_error (Unix.EEXIST, _, _) ->
    (* Lost the publish race (or a previous incarnation already
       published this record): the surviving copy wins. *)
    (try Sys.remove tmp with Sys_error _ -> ())
  | exception Unix.Unix_error ((Unix.EPERM | Unix.EXDEV | Unix.ENOSYS | Unix.EMLINK), _, _) ->
    Sys.rename tmp path)

(* --- journal scan --------------------------------------------------------- *)

module Journal = struct
  type entry = {
    e_id : string;
    e_seq : int;
    e_client : string;
    e_kind : string;
    e_tasks : (string * string) list;
  }

  type completion = {
    c_id : string;
    c_cancelled : bool;
    c_results : (string, string) result list;
  }

  type scan = {
    s_pending : entry list;
    s_done : (entry option * completion) list;
    s_corrupt : string list;
  }

  let entry_json e =
    Json.Obj
      [
        ("v", Json.Int 1);
        ("id", Json.String e.e_id);
        ("seq", Json.Int e.e_seq);
        ("client", Json.String e.e_client);
        ("kind", Json.String e.e_kind);
        ( "tasks",
          Json.List
            (List.map
               (fun (k, a) -> Json.Obj [ ("key", Json.String k); ("arg", Json.String a) ])
               e.e_tasks) );
      ]

  let entry_of_json j =
    match (jstr "id" j, jint "seq" j, jstr "kind" j, jlist "tasks" j) with
    | Some id, Some seq, Some kind, Some ts ->
      let tasks =
        List.filter_map
          (fun t ->
            match (jstr "key" t, jstr "arg" t) with
            | Some k, Some a -> Some (k, a)
            | _ -> None)
          ts
      in
      if List.length tasks <> List.length ts then None
      else
        Some
          {
            e_id = id;
            e_seq = seq;
            e_client = Option.value ~default:"?" (jstr "client" j);
            e_kind = kind;
            e_tasks = tasks;
          }
    | _ -> None

  let completion_json c =
    Json.Obj
      [
        ("v", Json.Int 1);
        ("id", Json.String c.c_id);
        ("cancelled", Json.Bool c.c_cancelled);
        ( "results",
          Json.List
            (List.map
               (function
                 | Ok s -> Json.Obj [ ("ok", Json.String s) ]
                 | Error f -> Json.Obj [ ("fault", Json.String f) ])
               c.c_results) );
      ]

  let completion_of_json j =
    match (jstr "id" j, jlist "results" j) with
    | Some id, Some rs ->
      let results =
        List.filter_map
          (fun r ->
            match (jstr "ok" r, jstr "fault" r) with
            | Some s, _ -> Some (Ok s)
            | None, Some f -> Some (Error f)
            | None, None -> None)
          rs
      in
      if List.length results <> List.length rs then None
      else
        Some
          {
            c_id = id;
            c_cancelled = Option.value ~default:false (jbool "cancelled" j);
            c_results = results;
          }
    | _ -> None

  let scan ~dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> { s_pending = []; s_done = []; s_corrupt = [] }
    | names ->
      let corrupt = ref [] in
      let quarantine path reason =
        warn "journal: quarantining %s (%s)" path reason;
        (try Sys.rename path (path ^ ".corrupt") with Sys_error _ -> ());
        corrupt := path :: !corrupt
      in
      let load suffix decode =
        let table = Hashtbl.create 16 in
        Array.iter
          (fun name ->
            if Filename.check_suffix name suffix then begin
              let path = Filename.concat dir name in
              match read_file path with
              | None -> quarantine path "unreadable"
              | Some content -> (
                match decode_record content with
                | Error reason -> quarantine path reason
                | Ok j -> (
                  match decode j with
                  | None -> quarantine path "missing fields"
                  | Some v -> Hashtbl.replace table (Filename.chop_suffix name suffix) v))
            end)
          names;
        table
      in
      let entries = load ".job" entry_of_json in
      let completions = load ".done" completion_of_json in
      let dones =
        Hashtbl.fold
          (fun base c acc -> (Hashtbl.find_opt entries base, c) :: acc)
          completions []
      in
      let pending =
        Hashtbl.fold
          (fun base e acc -> if Hashtbl.mem completions base then acc else e :: acc)
          entries []
        |> List.sort (fun a b -> compare (a.e_seq, a.e_id) (b.e_seq, b.e_id))
      in
      { s_pending = pending; s_done = dones; s_corrupt = !corrupt }
end

(* --- configuration -------------------------------------------------------- *)

type config = {
  port : int;
  frame_port : int option;
  queue_limit : int;
  client_inflight : int;
  volatile : bool;
  store_root : string;
}

let default_queue_limit = 64
let default_client_inflight = 16

let default_config ~port ~store_root =
  {
    port;
    frame_port = None;
    queue_limit = default_queue_limit;
    client_inflight = default_client_inflight;
    volatile = false;
    store_root;
  }

(* --- daemon state --------------------------------------------------------- *)

type jstate = Queued | Running | Done | Cancelled

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Cancelled -> "cancelled"

type djob = {
  id : string;
  seq : int;
  client : string;
  kind : string;
  tasks : (string * string) array;
  mutable state : jstate;
  mutable results : (string, string) result array;
}

type counters = {
  mutable submitted : int;
  mutable admitted : int;
  mutable rejected_queue : int;
  mutable rejected_client : int;
  mutable rejected_drain : int;
  mutable completed : int;
  mutable reserved : int;  (* answered from a completion record *)
  mutable replayed : int;  (* pending jobs re-enqueued at startup *)
  mutable cancelled : int;
  mutable journal_errors : int;
  mutable corrupt_records : int;
  mutable accept_errors : int;
}

type t = {
  cfg : config;
  m : Mutex.t;
  work : Condition.t;  (* scheduler waits here for queue/stop changes *)
  queue : djob Queue.t;
  jobs : (string, djob) Hashtbl.t;
  inflight : (string, int) Hashtbl.t;  (* client -> queued+running *)
  c : counters;
  mutable seq : int;
  mutable draining : bool;
  mutable stopping : bool;
  mutable running : djob option;
  mutable journal_ok : bool;  (* false: volatile or degraded *)
  wake_r : Unix.file_descr;  (* scheduler -> select() self-pipe *)
  wake_w : Unix.file_descr;
}

let inflight_of t client = Option.value ~default:0 (Hashtbl.find_opt t.inflight client)

let incr_inflight t client = Hashtbl.replace t.inflight client (inflight_of t client + 1)

let decr_inflight t client =
  let n = inflight_of t client - 1 in
  if n <= 0 then Hashtbl.remove t.inflight client else Hashtbl.replace t.inflight client n

let wake t =
  try ignore (Unix.write_substring t.wake_w "!" 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

(* --- the journal, as the daemon writes it --------------------------------- *)

let journal_degrade t exn =
  Mutex.protect t.m (fun () ->
      t.c.journal_errors <- t.c.journal_errors + 1;
      if t.journal_ok then begin
        t.journal_ok <- false;
        warn
          "journal unwritable (%s) — continuing WITHOUT durability: accepted jobs are \
           volatile until the daemon can write %s again"
          (Printexc.to_string exn)
          (journal_dir ~store_root:t.cfg.store_root)
      end)

let journal_append t entry =
  if Mutex.protect t.m (fun () -> t.journal_ok) then begin
    try
      write_record ~point:"daemon.journal.append"
        (journal_dir ~store_root:t.cfg.store_root)
        (job_basename entry.Journal.e_id ^ ".job")
        (Json.to_string (Journal.entry_json entry))
    with e -> journal_degrade t e
  end

let journal_complete t completion =
  if Mutex.protect t.m (fun () -> t.journal_ok) then begin
    try
      write_record ~point:"daemon.result.publish"
        (journal_dir ~store_root:t.cfg.store_root)
        (job_basename completion.Journal.c_id ^ ".done")
        (Json.to_string (Journal.completion_json completion))
    with e -> journal_degrade t e
  end

(* --- running a job -------------------------------------------------------- *)

(* Both paths are bit-identical to a serial run of the kind function
   (test-enforced through the whole dispatch stack), which is what lets
   the soak compare post-crash results against a fault-free serial
   reference byte for byte.  Remote.sweep owns the fleet half of the
   degradation ladder: dead/unspawnable workers fall back to in-process
   domains with a warning, never to a lost job. *)
let run_tasks kind tasks =
  let faults f = Pool.fault_to_string f in
  match
    if Remote.enabled () then
      let r, _, _ = Remote.sweep ~kind ~key:fst ~arg:snd tasks in
      r
    else
      match Remote.find_kind kind with
      | None ->
        Array.map
          (fun _ -> Error (Pool.Crashed { exn = "unknown kind " ^ kind; backtrace = "" }))
          tasks
      | Some fn ->
        let r, _, _ = Pool.run ~key:fst (fun (k, a) ctx -> fn ~key:k ~arg:a ctx) tasks in
        r
  with
  | r -> Array.map (function Ok s -> Ok s | Error f -> Error (faults f)) r
  | exception e ->
    (* A job must never take the scheduler down with it. *)
    Array.map (fun _ -> Error (Printf.sprintf "daemon: %s" (Printexc.to_string e))) tasks

let run_job job =
  ignore (Faultinject.at_point "daemon.dispatch");
  let span =
    if Trace.on () then
      Some
        (Trace.span_begin ~stage:"daemon.job"
           [
             ("id", job.id);
             ("kind", job.kind);
             ("tasks", string_of_int (Array.length job.tasks));
           ])
    else None
  in
  let results = run_tasks job.kind job.tasks in
  Option.iter Trace.span_end span;
  results

let scheduler t () =
  let rec loop () =
    Mutex.lock t.m;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.work t.m
    done;
    if t.stopping then Mutex.unlock t.m
    else begin
      let job = Queue.pop t.queue in
      job.state <- Running;
      t.running <- Some job;
      Mutex.unlock t.m;
      let results = run_job job in
      journal_complete t
        {
          Journal.c_id = job.id;
          c_cancelled = false;
          c_results = Array.to_list results;
        };
      Mutex.lock t.m;
      job.results <- results;
      job.state <- Done;
      t.running <- None;
      t.c.completed <- t.c.completed + 1;
      decr_inflight t job.client;
      Mutex.unlock t.m;
      wake t;
      loop ()
    end
  in
  loop ()

(* --- control protocol ----------------------------------------------------- *)

type client = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;
  mutable drain_wait : bool;
  mutable dead : bool;
}

let send_json cl v =
  let s = Json.to_string v ^ "\n" in
  let n = String.length s in
  match
    let rec go off = if off < n then go (off + Unix.write_substring cl.fd s off (n - off)) in
    go 0
  with
  | () -> ()
  | exception Unix.Unix_error _ -> cl.dead <- true

let reply_err cl ?id msg =
  send_json cl
    (Json.Obj
       ((match id with Some id -> [ ("id", Json.String id) ] | None -> [])
       @ [ ("ok", Json.Bool false); ("error", Json.String msg) ]))

let results_json rs =
  Json.List
    (Array.to_list rs
    |> List.map (function
         | Ok s -> Json.Obj [ ("ok", Json.String s) ]
         | Error f -> Json.Obj [ ("fault", Json.String f) ]))

(* The scheduler domain mutates [state]/[results]; snapshot them under
   the lock before serializing. *)
let reply_state t cl job =
  let state, results =
    Mutex.protect t.m (fun () -> (job.state, job.results))
  in
  let base = [ ("ok", Json.Bool true); ("id", Json.String job.id);
               ("state", Json.String (state_name state)) ] in
  let fields =
    match state with
    | Done | Cancelled -> base @ [ ("results", results_json results) ]
    | Queued | Running -> base
  in
  send_json cl (Json.Obj fields)

let stats_json t =
  Mutex.protect t.m (fun () ->
      Json.Obj
        [
          ("queued", Json.Int (Queue.length t.queue));
          ("running", Json.Int (match t.running with Some _ -> 1 | None -> 0));
          ("draining", Json.Bool t.draining);
          ( "journal",
            Json.String
              (if t.cfg.volatile then "volatile"
               else if t.journal_ok then "ok"
               else "degraded") );
          ("submitted", Json.Int t.c.submitted);
          ("admitted", Json.Int t.c.admitted);
          ("rejected_queue_full", Json.Int t.c.rejected_queue);
          ("rejected_client_cap", Json.Int t.c.rejected_client);
          ("rejected_draining", Json.Int t.c.rejected_drain);
          ("completed", Json.Int t.c.completed);
          ("reserved", Json.Int t.c.reserved);
          ("replayed", Json.Int t.c.replayed);
          ("cancelled", Json.Int t.c.cancelled);
          ("journal_errors", Json.Int t.c.journal_errors);
          ("corrupt_records", Json.Int t.c.corrupt_records);
          ("accept_errors", Json.Int t.c.accept_errors);
        ])

let handle_submit t cl v =
  match (jstr "id" v, jstr "kind" v, jlist "tasks" v) with
  | (None | Some ""), _, _ -> reply_err cl "submit: missing \"id\""
  | _, None, _ -> reply_err cl "submit: missing \"kind\""
  | _, _, None -> reply_err cl "submit: missing \"tasks\""
  | Some id, Some kind, Some ts -> (
    let tasks =
      List.filter_map
        (fun task ->
          match (jstr "key" task, jstr "arg" task) with
          | Some k, Some a -> Some (k, a)
          | _ -> None)
        ts
    in
    if List.length tasks <> List.length ts then
      reply_err cl ~id "submit: every task needs string \"key\" and \"arg\""
    else begin
      let client = Option.value ~default:"anon" (jstr "client" v) in
      Mutex.lock t.m;
      t.c.submitted <- t.c.submitted + 1;
      match Hashtbl.find_opt t.jobs id with
      | Some job ->
        (* Idempotent resubmit: answer with what we already know. *)
        if job.state = Done || job.state = Cancelled then t.c.reserved <- t.c.reserved + 1;
        Mutex.unlock t.m;
        reply_state t cl job
      | None ->
        if t.draining || t.stopping then begin
          t.c.rejected_drain <- t.c.rejected_drain + 1;
          Mutex.unlock t.m;
          reply_err cl ~id "REJECTED busy (draining)"
        end
        else if Queue.length t.queue >= t.cfg.queue_limit then begin
          t.c.rejected_queue <- t.c.rejected_queue + 1;
          Mutex.unlock t.m;
          reply_err cl ~id "REJECTED busy (queue full)"
        end
        else if inflight_of t client >= t.cfg.client_inflight then begin
          t.c.rejected_client <- t.c.rejected_client + 1;
          Mutex.unlock t.m;
          reply_err cl ~id
            (Printf.sprintf "REJECTED busy (client %S at in-flight cap %d)" client
               t.cfg.client_inflight)
        end
        else if Remote.find_kind kind = None then begin
          Mutex.unlock t.m;
          reply_err cl ~id (Printf.sprintf "unknown kind %S" kind)
        end
        else begin
          t.seq <- t.seq + 1;
          let job =
            {
              id;
              seq = t.seq;
              client;
              kind;
              tasks = Array.of_list tasks;
              state = Queued;
              results = [||];
            }
          in
          (* Visible (and idempotent) immediately, but only enqueued —
             and only acked — once the journal record is down: a crash
             between the ack and the record would otherwise lose an
             acknowledged job. *)
          Hashtbl.replace t.jobs id job;
          incr_inflight t client;
          t.c.admitted <- t.c.admitted + 1;
          Mutex.unlock t.m;
          journal_append t
            {
              Journal.e_id = id;
              e_seq = job.seq;
              e_client = client;
              e_kind = kind;
              e_tasks = tasks;
            };
          Mutex.lock t.m;
          Queue.push job t.queue;
          Condition.signal t.work;
          Mutex.unlock t.m;
          if Trace.on () then
            Trace.instant ~stage:"daemon.admit" [ ("id", id); ("kind", kind) ];
          reply_state t cl job
        end
    end)

let handle_cancel t cl v =
  match jstr "id" v with
  | None -> reply_err cl "cancel: missing \"id\""
  | Some id -> (
    Mutex.lock t.m;
    match Hashtbl.find_opt t.jobs id with
    | None ->
      Mutex.unlock t.m;
      reply_err cl ~id "unknown job"
    | Some job -> (
      match job.state with
      | Running ->
        Mutex.unlock t.m;
        reply_err cl ~id "running"
      | Done ->
        Mutex.unlock t.m;
        reply_err cl ~id "done"
      | Cancelled ->
        Mutex.unlock t.m;
        reply_state t cl job
      | Queued ->
        let keep = Queue.create () in
        Queue.iter (fun j -> if j.id <> id then Queue.push j keep) t.queue;
        Queue.clear t.queue;
        Queue.transfer keep t.queue;
        job.state <- Cancelled;
        job.results <- [||];
        t.c.cancelled <- t.c.cancelled + 1;
        decr_inflight t job.client;
        Mutex.unlock t.m;
        (* Durable: a replayed daemon must not resurrect the job. *)
        journal_complete t { Journal.c_id = id; c_cancelled = true; c_results = [] };
        reply_state t cl job))

let handle_status t cl v =
  match jstr "id" v with
  | None -> reply_err cl "status: missing \"id\""
  | Some id -> (
    match Mutex.protect t.m (fun () -> Hashtbl.find_opt t.jobs id) with
    | Some job -> reply_state t cl job
    | None ->
      send_json cl
        (Json.Obj
           [ ("ok", Json.Bool true); ("id", Json.String id); ("state", Json.String "unknown") ]))

let idle t = Queue.is_empty t.queue && t.running = None

let check_drain_waiters t clients =
  let flush = Mutex.protect t.m (fun () -> t.draining && idle t) in
  if flush then
    List.iter
      (fun cl ->
        if cl.drain_wait && not cl.dead then begin
          cl.drain_wait <- false;
          send_json cl (Json.Obj [ ("ok", Json.Bool true); ("op", Json.String "drain") ])
        end)
      clients

let handle_line t cl line =
  match Json.of_string line with
  | Error e -> reply_err cl (Printf.sprintf "unparseable request: %s" e)
  | Ok v -> (
    match jstr "op" v with
    | Some "submit" -> handle_submit t cl v
    | Some "status" -> handle_status t cl v
    | Some "cancel" -> handle_cancel t cl v
    | Some "stats" -> send_json cl (stats_json t)
    | Some "drain" ->
      Mutex.protect t.m (fun () -> t.draining <- true);
      cl.drain_wait <- true
      (* replied by [check_drain_waiters] once queue and runner are empty *)
    | Some "shutdown" ->
      send_json cl (Json.Obj [ ("ok", Json.Bool true); ("op", Json.String "shutdown") ]);
      Mutex.lock t.m;
      t.stopping <- true;
      Condition.broadcast t.work;
      Mutex.unlock t.m;
      wake t
    | Some op -> reply_err cl (Printf.sprintf "unknown op %S" op)
    | None -> reply_err cl "missing \"op\"")

let feed_client t cl =
  let chunk = Bytes.create 4096 in
  match Unix.read cl.fd chunk 0 (Bytes.length chunk) with
  | 0 -> cl.dead <- true
  | exception Unix.Unix_error _ -> cl.dead <- true
  | n ->
    Buffer.add_subbytes cl.rbuf chunk 0 n;
    let data = Buffer.contents cl.rbuf in
    let rec lines start =
      match String.index_from_opt data start '\n' with
      | None ->
        Buffer.clear cl.rbuf;
        Buffer.add_substring cl.rbuf data start (String.length data - start)
      | Some nl ->
        let line = String.trim (String.sub data start (nl - start)) in
        if line <> "" && not cl.dead then handle_line t cl line;
        lines (nl + 1)
    in
    lines 0

(* --- startup: replay the journal ------------------------------------------ *)

let replay t =
  if not t.cfg.volatile then begin
    let scan = Journal.scan ~dir:(journal_dir ~store_root:t.cfg.store_root) in
    Mutex.lock t.m;
    t.c.corrupt_records <- List.length scan.s_corrupt;
    List.iter
      (fun (entry, comp) ->
        let open Journal in
        let job =
          {
            id = comp.c_id;
            seq = (match entry with Some e -> e.e_seq | None -> 0);
            client = (match entry with Some e -> e.e_client | None -> "?");
            kind = (match entry with Some e -> e.e_kind | None -> "?");
            tasks =
              (match entry with Some e -> Array.of_list e.e_tasks | None -> [||]);
            state = (if comp.c_cancelled then Cancelled else Done);
            results = Array.of_list comp.c_results;
          }
        in
        t.seq <- max t.seq job.seq;
        Hashtbl.replace t.jobs job.id job)
      scan.s_done;
    List.iter
      (fun e ->
        let open Journal in
        let job =
          {
            id = e.e_id;
            seq = e.e_seq;
            client = e.e_client;
            kind = e.e_kind;
            tasks = Array.of_list e.e_tasks;
            state = Queued;
            results = [||];
          }
        in
        t.seq <- max t.seq job.seq;
        Hashtbl.replace t.jobs job.id job;
        incr_inflight t job.client;
        Queue.push job t.queue;
        t.c.replayed <- t.c.replayed + 1)
      scan.s_pending;
    let replayed = t.c.replayed and served = List.length scan.s_done in
    Condition.signal t.work;
    Mutex.unlock t.m;
    if replayed > 0 || served > 0 || scan.s_corrupt <> [] then
      warn "journal replay: %d pending job(s) re-enqueued, %d completion(s) re-served, %d corrupt record(s) quarantined"
        replayed served (List.length scan.s_corrupt)
  end

(* --- test kinds ----------------------------------------------------------- *)

let register_test_kinds () =
  Remote.register_kind "daemon.sleep" (fun ~key ~arg _ctx ->
      let seconds =
        match float_of_string_opt arg with Some s when s > 0. -> Float.min s 30. | _ -> 0.05
      in
      (* Sliced so --task-timeout deadlines can fire cooperatively. *)
      let slice = 0.02 in
      let until = Pool.now () +. seconds in
      while Pool.now () < until do
        Pool.check_deadline ();
        Unix.sleepf (Float.min slice (Float.max 0. (until -. Pool.now ())))
      done;
      "slept:" ^ key)

(* --- serving -------------------------------------------------------------- *)

let stop_requested = Atomic.make false

let listen_on port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

let serve cfg =
  ensure_dir (journal_dir ~store_root:cfg.store_root);
  (match acquire_lock ~store_root:cfg.store_root with
  | Ok () -> ()
  | Error msg -> failwith ("chex86d: refusing to start: " ^ msg));
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_w;
  let t =
    {
      cfg;
      m = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      jobs = Hashtbl.create 64;
      inflight = Hashtbl.create 8;
      c =
        {
          submitted = 0;
          admitted = 0;
          rejected_queue = 0;
          rejected_client = 0;
          rejected_drain = 0;
          completed = 0;
          reserved = 0;
          replayed = 0;
          cancelled = 0;
          journal_errors = 0;
          corrupt_records = 0;
          accept_errors = 0;
        };
      seq = 0;
      draining = false;
      stopping = false;
      running = None;
      journal_ok = not cfg.volatile;
      wake_r;
      wake_w;
    }
  in
  let finally () =
    release_lock ~store_root:cfg.store_root;
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ wake_r; wake_w ]
  in
  Fun.protect ~finally (fun () ->
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let on_stop = Sys.Signal_handle (fun _ -> Atomic.set stop_requested true) in
      Sys.set_signal Sys.sigterm on_stop;
      Sys.set_signal Sys.sigint on_stop;
      Atomic.set stop_requested false;
      let prev_extra = !Trace.metrics_extra in
      Trace.metrics_extra := (fun () -> prev_extra () @ [ ("daemon", stats_json t) ]);
      replay t;
      let worker = Domain.spawn (scheduler t) in
      (* Optional framed port: the daemon doubles as a --worker peer.
         Framed jobs bypass the journal — the connecting supervisor owns
         their replay, exactly as with a plain chex86_worker. *)
      (match cfg.frame_port with
      | None -> ()
      | Some port ->
        ignore
          (Domain.spawn (fun () ->
               try Remote.Worker.listen ~port
               with e -> warn "frame port %d died: %s" port (Printexc.to_string e))));
      let listen_fd = listen_on cfg.port in
      Printf.printf "chex86d: serving control on 127.0.0.1:%d%s (queue-limit %d, client-inflight %d, journal %s)\n%!"
        cfg.port
        (match cfg.frame_port with
        | Some p -> Printf.sprintf " + frames on 127.0.0.1:%d" p
        | None -> "")
        cfg.queue_limit cfg.client_inflight
        (if cfg.volatile then "volatile" else journal_dir ~store_root:cfg.store_root);
      let clients = ref [] in
      let accept_failures = ref 0 in
      let rec loop () =
        if Atomic.get stop_requested then begin
          Mutex.lock t.m;
          t.stopping <- true;
          Condition.broadcast t.work;
          Mutex.unlock t.m
        end;
        let stopping = Mutex.protect t.m (fun () -> t.stopping) in
        if not stopping then begin
          (* Backpressure: while the queue is at its limit, the
             listening socket leaves the select set — new connections
             queue up in the kernel backlog instead of buffering
             unboundedly in the daemon.  Draining does NOT gate the
             accept loop: a drained daemon still answers status/stats/
             shutdown; only submits are rejected. *)
          let accepting =
            Mutex.protect t.m (fun () -> Queue.length t.queue < t.cfg.queue_limit)
          in
          let rds =
            (t.wake_r :: (if accepting then [ listen_fd ] else []))
            @ List.map (fun cl -> cl.fd) !clients
          in
          (match Unix.select rds [] [] 0.25 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | ready, _, _ ->
            if List.mem t.wake_r ready then begin
              let buf = Bytes.create 64 in
              (try ignore (Unix.read t.wake_r buf 0 (Bytes.length buf))
               with Unix.Unix_error _ -> ())
            end;
            if List.mem listen_fd ready then begin
              match Unix.accept listen_fd with
              | fd, _ ->
                ignore (Faultinject.at_point "daemon.accept");
                accept_failures := 0;
                clients :=
                  { fd; rbuf = Buffer.create 256; drain_wait = false; dead = false }
                  :: !clients
              | exception Unix.Unix_error (e, _, _) ->
                (* Transient accept failures (EMFILE, ECONNABORTED…)
                   back off on the same capped-exponential curve as
                   worker respawn, so a resource squeeze cannot spin
                   the control loop hot. *)
                Mutex.protect t.m (fun () ->
                    t.c.accept_errors <- t.c.accept_errors + 1);
                incr accept_failures;
                let delay = Remote.backoff_delay ~sid:0 ~restarts:!accept_failures in
                warn "accept failed (%s); backing off %.2fs" (Unix.error_message e) delay;
                Unix.sleepf delay
            end;
            List.iter
              (fun cl -> if (not cl.dead) && List.mem cl.fd ready then feed_client t cl)
              !clients);
          check_drain_waiters t !clients;
          clients :=
            List.filter
              (fun cl ->
                if cl.dead then (try Unix.close cl.fd with Unix.Unix_error _ -> ());
                not cl.dead)
              !clients;
          loop ()
        end
      in
      loop ();
      Mutex.lock t.m;
      t.stopping <- true;
      Condition.broadcast t.work;
      Mutex.unlock t.m;
      Domain.join worker;
      List.iter (fun cl -> try Unix.close cl.fd with Unix.Unix_error _ -> ()) !clients;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      Printf.printf "chex86d: stopped (%d job(s) completed this incarnation)\n%!"
        t.c.completed)
