(* TLB with the paper's alias-hosting extension.

   Section V-C: "we extend the metadata bits in the TLB and the page
   tables to include an alias-hosting bit that indicates if a page
   contains a spilled pointer, to further minimize the number of
   lookups".  The authoritative alias-hosting bit lives in page-table
   metadata (a side table here); the TLB caches it per entry, and entries
   are refreshed when a page first gains a spilled pointer. *)

(* Struct-of-arrays entry state over [sets * ways] slots, set [s]
   occupying slots [s * ways .. s * ways + ways - 1]; [vpns] holds -1
   for an invalid entry (a vpn is [addr lsr page_bits], never
   negative). *)
type t = {
  name : string;
  vpns : int array;
  stamps : int array;
  alias_hosting : bool array;
  ways : int;
  set_mask : int;  (* sets - 1 *)
  page_table_bits : (int, bool ref) Hashtbl.t;  (* vpn -> alias-hosting *)
  counters : Chex86_stats.Counter.group;
  h_hit : Chex86_stats.Counter.handle;
  h_miss : Chex86_stats.Counter.handle;
  mutable clock : int;
}

let create ~name ~sets ~ways counters =
  (* Set indexing is [vpn land (sets - 1)], which silently aliases most
     of the index space when [sets] is not a power of two. *)
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Tlb.create: sets not a power of 2";
  {
    name;
    vpns = Array.make (sets * ways) (-1);
    stamps = Array.make (sets * ways) 0;
    alias_hosting = Array.make (sets * ways) false;
    ways;
    set_mask = sets - 1;
    page_table_bits = Hashtbl.create 256;
    counters;
    h_hit = Chex86_stats.Counter.handle counters (name ^ ".hit");
    h_miss = Chex86_stats.Counter.handle counters (name ^ ".miss");
    clock = 0;
  }

let page_alias_bit t vpn =
  match Hashtbl.find_opt t.page_table_bits vpn with
  | Some cell -> !cell
  | None -> false

(* Slot holding [vpn] among [i .. stop - 1], or -1.  Top-level
   recursion: an inner [rec] capturing [vpns]/[vpn] allocates a closure
   per access without flambda. *)
let rec find_slot_from (vpns : int array) (vpn : int) stop i =
  if i >= stop then -1
  else if vpns.(i) = vpn then i
  else find_slot_from vpns vpn stop (i + 1)

let find_slot t vpn =
  let base = (vpn land t.set_mask) * t.ways in
  find_slot_from t.vpns vpn (base + t.ways) base

(* Mark the page containing [addr] as hosting a spilled pointer alias;
   refresh any cached TLB entry. *)
let set_alias_hosting t addr =
  let vpn = addr lsr Image.page_bits in
  (match Hashtbl.find_opt t.page_table_bits vpn with
  | Some cell -> cell := true
  | None -> Hashtbl.add t.page_table_bits vpn (ref true));
  let slot = find_slot t vpn in
  if slot >= 0 then t.alias_hosting.(slot) <- true

(* [lookup_hit t addr] is the per-access timing probe: true on hit.  A
   miss triggers a (modelled) page walk and fills the entry with the
   page-table bit.  The hierarchy only consumes the hit bit, so this
   path returns an unboxed bool rather than the [lookup] tuple. *)
let lookup_hit t addr =
  t.clock <- t.clock + 1;
  let vpn = addr lsr Image.page_bits in
  let slot = find_slot t vpn in
  if slot >= 0 then begin
    t.stamps.(slot) <- t.clock;
    Chex86_stats.Counter.incr_handle t.counters t.h_hit;
    true
  end
  else begin
    Chex86_stats.Counter.incr_handle t.counters t.h_miss;
    (* LRU victim: an invalid entry beats a valid one; among equals the
       least stamp, the first such slot on ties. *)
    let vpns = t.vpns and stamps = t.stamps in
    let base = (vpn land t.set_mask) * t.ways in
    let way = ref base in
    for i = base + 1 to base + t.ways - 1 do
      let vi = vpns.(i) >= 0 and vb = vpns.(!way) >= 0 in
      if (not vi) && vb then way := i
      else if vi = vb && stamps.(i) < stamps.(!way) then way := i
    done;
    vpns.(!way) <- vpn;
    stamps.(!way) <- t.clock;
    t.alias_hosting.(!way) <- page_alias_bit t vpn;
    false
  end

(* [lookup t addr] returns [(hit, alias_hosting)].  Wrapper over
   [lookup_hit]: after the probe the entry is guaranteed resident, so the
   alias bit is re-read from the (just touched or just filled) slot. *)
let lookup t addr =
  let hit = lookup_hit t addr in
  (hit, t.alias_hosting.(find_slot t (addr lsr Image.page_bits)))

let alias_hosting_pages t =
  Hashtbl.fold (fun _ cell acc -> if !cell then acc + 1 else acc) t.page_table_bits 0
