(* Tests for the memory substrate: sparse image, caches (incl. the
   victim cache and hashed indexing), TLB alias-hosting bits, and the
   hierarchy's latency/bandwidth accounting. *)

module Image = Chex86_mem.Image
module Cache = Chex86_mem.Cache
module Tlb = Chex86_mem.Tlb
module Hierarchy = Chex86_mem.Hierarchy
module Counter = Chex86_stats.Counter

let test_image_roundtrip () =
  let m = Image.create () in
  Image.write64 m 0x1000 0x1122334455667788;
  Alcotest.(check int) "64-bit" 0x1122334455667788 (Image.read64 m 0x1000);
  Alcotest.(check int) "little-endian low byte" 0x88 (Image.read_byte m 0x1000);
  Alcotest.(check int) "little-endian byte 2" 0x66 (Image.read_byte m 0x1002);
  Alcotest.(check int) "32-bit sub-read" 0x55667788 (Image.read m 0x1000 4)

let test_image_page_crossing () =
  let m = Image.create () in
  let addr = 0x1FFC (* 4 bytes before a page boundary *) in
  Image.write m addr 8 0x0102030405060708;
  Alcotest.(check int) "page-crossing roundtrip" 0x0102030405060708 (Image.read m addr 8)

let test_image_untouched_zero () =
  let m = Image.create () in
  Alcotest.(check int) "untouched memory reads zero" 0 (Image.read64 m 0xDEAD00);
  Alcotest.(check int) "reads do not allocate" 0 (Image.resident_pages m)

let test_image_resident () =
  let m = Image.create () in
  Image.write_byte m 0 1;
  Image.write_byte m 5000 1;
  Image.write_byte m 5001 1;
  Alcotest.(check int) "two pages touched" 2 (Image.resident_pages m);
  Alcotest.(check int) "bytes" (2 * 4096) (Image.resident_bytes m)

let qcheck_image_masked_roundtrip =
  QCheck.Test.make ~name:"n-byte write/read roundtrip"
    QCheck.(triple (int_range 0 100000) (int_range 1 8) (int_bound max_int))
    (fun (addr, n, v) ->
      let m = Image.create () in
      Image.write m addr n v;
      let mask = if n = 8 then -1 else (1 lsl (8 * n)) - 1 in
      Image.read m addr n = v land mask)

let qcheck_image_float_roundtrip =
  QCheck.Test.make ~name:"float write/read is bit-exact" QCheck.float (fun f ->
      let m = Image.create () in
      Image.write_float m 0x2000 f;
      let back = Image.read_float m 0x2000 in
      Int64.bits_of_float back = Int64.bits_of_float f)

let test_zero_range () =
  let m = Image.create () in
  Image.write64 m 0x100 (-1);
  Image.zero_range m 0x100 8;
  Alcotest.(check int) "zeroed" 0 (Image.read64 m 0x100)

let new_cache ?victim ?hash_index ~sets ~ways () =
  let g = Counter.create_group () in
  (Cache.create ?victim ?hash_index ~name:"c" ~sets ~ways ~line_bytes:64 g, g)

let test_cache_hit_after_miss () =
  let c, _ = new_cache ~sets:16 ~ways:2 () in
  Alcotest.(check bool) "first access misses" false (Cache.access c ~write:false 0x1000);
  Alcotest.(check bool) "second access hits" true (Cache.access c ~write:false 0x1000);
  Alcotest.(check bool) "same line hits" true (Cache.access c ~write:false 0x103F)

let test_cache_lru_eviction () =
  let c, _ = new_cache ~sets:1 ~ways:2 () in
  ignore (Cache.access c ~write:false 0x0000);
  ignore (Cache.access c ~write:false 0x1000);
  ignore (Cache.access c ~write:false 0x0000);  (* touch A: B becomes LRU *)
  ignore (Cache.access c ~write:false 0x2000);  (* evicts B *)
  Alcotest.(check bool) "A survives" true (Cache.access c ~write:false 0x0000);
  Alcotest.(check bool) "B evicted" false (Cache.access c ~write:false 0x1000)

let test_cache_victim_recovery () =
  let g = Counter.create_group () in
  let victim = Cache.create ~name:"v" ~sets:1 ~ways:4 ~line_bytes:64 g in
  let c = Cache.create ~victim ~name:"c" ~sets:1 ~ways:1 ~line_bytes:64 g in
  ignore (Cache.access c ~write:false 0x0000);
  ignore (Cache.access c ~write:false 0x1000);  (* evicts A into the victim *)
  Alcotest.(check bool) "A recovered from victim" true (Cache.access c ~write:false 0x0000);
  Alcotest.(check int) "victim hit counted" 1 (Counter.get g "c.victim_hit")

(* Regression for the evicted-address reconstruction bug: under hashed
   indexing the set index is an XOR fold of the block number, so
   re-assembling an evicted line's address as tag|set (the old scheme)
   handed the victim cache the wrong block.  Lines now carry full block
   numbers, so a block evicted from a hash-indexed cache must be
   recoverable by the exact address that installed it. *)
let test_cache_victim_recovery_hashed_index () =
  let g = Counter.create_group () in
  let victim = Cache.create ~name:"v" ~sets:1 ~ways:4 ~line_bytes:64 g in
  let c = Cache.create ~victim ~hash_index:true ~name:"c" ~sets:16 ~ways:1 ~line_bytes:64 g in
  (* Blocks 0x00 and 0x11 both hash to set 0 (0x11 xor 0x11>>4 = 0x10),
     but their low index bits differ — tag|set reassembly would turn the
     evicted block 0x00 into 0x10. *)
  let a = 0x00 lsl 6 and b = 0x11 lsl 6 in
  ignore (Cache.access c ~write:false a);
  ignore (Cache.access c ~write:false b);  (* evicts [a]'s block into the victim *)
  Alcotest.(check bool) "hashed-evicted block recovered" true (Cache.access c ~write:false a);
  Alcotest.(check int) "victim hit counted" 1 (Counter.get g "c.victim_hit")

(* Regression for the victim-duplication bug: a victim hit swapped the
   block back into the main array but left the victim's copy valid, so
   the block lived in both arrays and later spills stacked duplicates in
   the victim set, silently shrinking its capacity.  After A round-trips
   main -> victim -> main twice, the 2-way victim must still hold both
   distinct casualties. *)
let test_cache_victim_no_duplicates () =
  let g = Counter.create_group () in
  let victim = Cache.create ~name:"v" ~sets:1 ~ways:2 ~line_bytes:64 g in
  let c = Cache.create ~victim ~name:"c" ~sets:1 ~ways:1 ~line_bytes:64 g in
  let a = 0x0000 and b = 0x1000 and d = 0x2000 in
  ignore (Cache.access c ~write:false a);  (* main=[A] *)
  ignore (Cache.access c ~write:false b);  (* main=[B] victim=[A] *)
  ignore (Cache.access c ~write:false a);  (* swap back; victim=[B] *)
  ignore (Cache.access c ~write:false b);  (* swap back; victim=[A] *)
  ignore (Cache.access c ~write:false d);  (* main=[D] victim=[A;B] *)
  Alcotest.(check bool) "A still in victim" true (Cache.access c ~write:false a);
  Alcotest.(check int) "victim hits" 3 (Counter.get g "c.victim_hit")

let test_cache_rejects_bad_geometry () =
  let g = Counter.create_group () in
  let reject msg err f = Alcotest.check_raises msg (Invalid_argument err) (fun () -> ignore (f ())) in
  List.iter
    (fun sets ->
      reject
        (Printf.sprintf "sets=%d rejected" sets)
        "Cache.create: sets not a power of 2"
        (fun () -> Cache.create ~name:"c" ~sets ~ways:2 ~line_bytes:64 g))
    [ 0; 3; 6; 100 ];
  List.iter
    (fun line_bytes ->
      reject
        (Printf.sprintf "line_bytes=%d rejected" line_bytes)
        "Cache.create: line_bytes not a power of 2"
        (fun () -> Cache.create ~name:"c" ~sets:16 ~ways:2 ~line_bytes g))
    [ 0; 48; 100 ];
  reject "ways=0 rejected" "Cache.create: ways must be >= 1" (fun () ->
      Cache.create ~name:"c" ~sets:16 ~ways:0 ~line_bytes:64 g);
  reject "Tree-PLRU non-pow2 ways rejected"
    "Cache.create: Tree-PLRU needs a power-of-2 way count" (fun () ->
      Cache.create ~policy:Cache.Tree_plru ~name:"c" ~sets:16 ~ways:3 ~line_bytes:64 g)

let test_cache_tree_plru_protects_touched () =
  let g = Counter.create_group () in
  let c = Cache.create ~policy:Cache.Tree_plru ~name:"p" ~sets:1 ~ways:4 ~line_bytes:64 g in
  let blk i = i * 0x1000 in
  for i = 0 to 3 do
    ignore (Cache.access c ~write:false (blk i))
  done;
  ignore (Cache.access c ~write:false (blk 0));  (* tree points away from way 0 *)
  ignore (Cache.access c ~write:false (blk 4));  (* PLRU victim is way 2 *)
  Alcotest.(check bool) "touched way survives" true (Cache.access c ~write:false (blk 0));
  Alcotest.(check bool) "PLRU victim was evicted" false (Cache.access c ~write:false (blk 2))

let test_cache_mru_evicts_most_recent () =
  let g = Counter.create_group () in
  let c = Cache.create ~policy:Cache.Mru ~name:"m" ~sets:1 ~ways:2 ~line_bytes:64 g in
  ignore (Cache.access c ~write:false 0x0000);
  ignore (Cache.access c ~write:false 0x1000);
  ignore (Cache.access c ~write:false 0x0000);  (* A is now MRU *)
  ignore (Cache.access c ~write:false 0x2000);  (* MRU evicts A, not B *)
  Alcotest.(check bool) "LRU block survives under MRU" true (Cache.access c ~write:false 0x1000);
  Alcotest.(check bool) "MRU block evicted" false (Cache.access c ~write:false 0x0000)

let test_cache_invalidate () =
  let c, _ = new_cache ~sets:16 ~ways:2 () in
  ignore (Cache.access c ~write:false 0x4000);
  Cache.invalidate c 0x4000;
  Alcotest.(check bool) "invalidated line misses" false (Cache.access c ~write:false 0x4000)

let test_cache_hashed_index_spreads () =
  (* 32-byte-strided granule stream that would alias into few sets under
     modulo indexing: hashed indexing must retain most of it. *)
  let g = Counter.create_group () in
  let c = Cache.create ~hash_index:true ~name:"h" ~sets:128 ~ways:2 ~line_bytes:8 g in
  for _ = 1 to 5 do
    for i = 0 to 99 do
      ignore (Cache.access c ~write:false (0x10000000 + (i * 32)))
    done
  done;
  let hits = Counter.get g "h.hit" in
  Alcotest.(check bool) (Printf.sprintf "mostly hits (%d)" hits) true (hits > 350)

let test_tlb_alias_bits () =
  let g = Counter.create_group () in
  let tlb = Tlb.create ~name:"tlb" ~sets:4 ~ways:2 g in
  let addr = 0x123456 in
  Alcotest.(check bool) "fresh page not hosting" false (snd (Tlb.lookup tlb addr));
  Tlb.set_alias_hosting tlb addr;
  Alcotest.(check bool) "page-table bit set" true (Tlb.page_alias_bit tlb (addr lsr 12));
  Alcotest.(check bool) "cached entry refreshed" true (snd (Tlb.lookup tlb addr));
  Alcotest.(check int) "one hosting page" 1 (Tlb.alias_hosting_pages tlb)

let test_tlb_hit_miss () =
  let g = Counter.create_group () in
  let tlb = Tlb.create ~name:"tlb" ~sets:4 ~ways:2 g in
  Alcotest.(check bool) "first lookup misses" false (fst (Tlb.lookup tlb 0x5000));
  Alcotest.(check bool) "second lookup hits" true (fst (Tlb.lookup tlb 0x5abc))

let test_tlb_rejects_non_pow2_sets () =
  (* Set indexing masks with [sets - 1]; a non-power-of-two count would
     silently alias most of the index space (same guard as Cache.create). *)
  let g = Counter.create_group () in
  List.iter
    (fun sets ->
      Alcotest.check_raises
        (Printf.sprintf "sets=%d rejected" sets)
        (Invalid_argument "Tlb.create: sets not a power of 2")
        (fun () -> ignore (Tlb.create ~name:"tlb" ~sets ~ways:2 g)))
    [ 0; 3; 6; 100 ]

(* --- differential checks against naive reference models ----------------- *)

(* Reference cache written from the policy definitions, independent of
   Cache's slot layout: a stamp-policy set is a list of its valid lines
   with explicit last-touch stamps; a Tree-PLRU set is a way array of
   [int option] plus the tree's node bits as a bool array (true sends the
   victim walk right). *)
type ref_set = Stamped of (int * int) list ref | Plru of int option array * bool array

type ref_cache = {
  r_policy : Cache.policy;
  r_sets : ref_set array;
  r_ways : int;
  r_set_bits : int;
  r_line_bits : int;
  r_hash : bool;
  r_victim : ref_cache option;
  mutable r_clock : int;
  mutable r_evicted : int;
  mutable r_hits : int;
  mutable r_misses : int;
  mutable r_victim_hits : int;
}

let rec ilog2 n = if n <= 1 then 0 else 1 + ilog2 (n / 2)

let ref_create ?victim ~policy ~hash ~sets ~ways ~line_bytes () =
  {
    r_policy = policy;
    r_sets =
      Array.init sets (fun _ ->
          if policy = Cache.Tree_plru then Plru (Array.make ways None, Array.make ways false)
          else Stamped (ref []));
    r_ways = ways;
    r_set_bits = ilog2 sets;
    r_line_bits = ilog2 line_bytes;
    r_hash = hash;
    r_victim = victim;
    r_clock = 0;
    r_evicted = -1;
    r_hits = 0;
    r_misses = 0;
    r_victim_hits = 0;
  }

let ref_set_of r block =
  let mask = Array.length r.r_sets - 1 and b = r.r_set_bits in
  r.r_sets.(if r.r_hash then (block lxor (block lsr b) lxor (block lsr (2 * b))) land mask
            else block land mask)

let ref_present set block =
  match set with
  | Stamped l -> List.mem_assoc block !l
  | Plru (ways, _) -> Array.mem (Some block) ways

let plru_bits_touch bits ways way =
  let leaf = ref (way + ways - 1) in
  while !leaf > 0 do
    let parent = (!leaf - 1) / 2 in
    (* Point the victim walk at the other child. *)
    bits.(parent) <- !leaf <> (2 * parent) + 2;
    leaf := parent
  done

let plru_bits_victim bits ways =
  let node = ref 0 in
  while !node < ways - 1 do
    node := (2 * !node) + if bits.(!node) then 2 else 1
  done;
  !node - (ways - 1)

let ref_touch r set block =
  match set with
  | Stamped l -> l := (block, r.r_clock) :: List.remove_assoc block !l
  | Plru (ways, bits) ->
    Array.iteri (fun w b -> if b = Some block then plru_bits_touch bits r.r_ways w) ways

(* Block displaced by installing [block], or -1. *)
let ref_insert r block =
  let set = ref_set_of r block in
  if ref_present set block then begin
    ref_touch r set block;
    -1
  end
  else
    match set with
    | Stamped l ->
      let evicted =
        if List.length !l < r.r_ways then -1
        else begin
          let pick (b, s) (b', s') =
            if (r.r_policy = Cache.Lru && s' < s) || (r.r_policy = Cache.Mru && s' > s) then
              (b', s')
            else (b, s)
          in
          let victim, _ = List.fold_left pick (List.hd !l) (List.tl !l) in
          l := List.remove_assoc victim !l;
          victim
        end
      in
      l := (block, r.r_clock) :: !l;
      evicted
    | Plru (ways, bits) ->
      let empty = ref (-1) in
      Array.iteri (fun w b -> if b = None && !empty < 0 then empty := w) ways;
      let w = if !empty >= 0 then !empty else plru_bits_victim bits r.r_ways in
      let evicted = match ways.(w) with Some b -> b | None -> -1 in
      ways.(w) <- Some block;
      plru_bits_touch bits r.r_ways w;
      evicted

let ref_remove r addr =
  let block = addr lsr r.r_line_bits in
  let set = ref_set_of r block in
  let present = ref_present set block in
  (match set with
  | Stamped l -> l := List.remove_assoc block !l
  | Plru (ways, _) -> Array.iteri (fun w b -> if b = Some block then ways.(w) <- None) ways);
  present

let ref_spill r v evicted =
  let casualty = ref_insert v ((evicted lsl r.r_line_bits) lsr v.r_line_bits) in
  if casualty >= 0 && v.r_line_bits = r.r_line_bits then casualty else -1

let ref_access r addr =
  r.r_clock <- r.r_clock + 1;
  r.r_evicted <- -1;
  let block = addr lsr r.r_line_bits in
  let set = ref_set_of r block in
  if ref_present set block then begin
    ref_touch r set block;
    r.r_hits <- r.r_hits + 1;
    true
  end
  else begin
    (* A victim hit takes the block out of the victim; either way it is
       installed in the main array and its casualty spills. *)
    let victim_hit =
      match r.r_victim with
      | None -> false
      | Some v ->
        v.r_clock <- v.r_clock + 1;
        ref_remove v addr
    in
    if victim_hit then r.r_victim_hits <- r.r_victim_hits + 1
    else r.r_misses <- r.r_misses + 1;
    let evicted = ref_insert r block in
    (match r.r_victim with
    | Some v -> if evicted >= 0 then r.r_evicted <- ref_spill r v evicted
    | None -> r.r_evicted <- evicted);
    victim_hit
  end

let ref_peek r addr =
  let present r = ref_present (ref_set_of r (addr lsr r.r_line_bits)) (addr lsr r.r_line_bits) in
  present r || match r.r_victim with Some v -> present v | None -> false

let ref_clear r =
  Array.iter (function Stamped l -> l := [] | Plru (ways, _) -> Array.fill ways 0 (Array.length ways) None) r.r_sets

type geometry = { policy : Cache.policy; sets : int; ways : int; line_bytes : int }

type cache_op = Access of bool * int | Peek of int | Invalidate of int | Invalidate_all

let gen_geometry =
  let open QCheck.Gen in
  let* policy = oneofl [ Cache.Lru; Cache.Tree_plru; Cache.Mru ] in
  let* sets = oneofl [ 1; 2; 4; 8 ] in
  let* ways = if policy = Cache.Tree_plru then oneofl [ 1; 2; 4; 8 ] else int_range 1 5 in
  let+ line_bytes = oneofl [ 8; 64 ] in
  { policy; sets; ways; line_bytes }

(* Blocks from a small pool (so sets conflict and lines return), some
   with high bits set (so hashed indexing folds them differently). *)
let gen_cache_op line_bytes =
  let open QCheck.Gen in
  let* block = int_bound 40 in
  let* high = frequencyl [ (3, 0); (1, 0x10000) ] in
  let* off = int_bound (line_bytes - 1) in
  let addr = ((block lor high) * line_bytes) + off in
  frequency
    [
      (14, map (fun w -> Access (w, addr)) bool);
      (2, return (Peek addr));
      (3, return (Invalidate addr));
      (1, return Invalidate_all);
    ]

let show_geometry g =
  Printf.sprintf "%s %dx%d %dB" (Cache.policy_name g.policy) g.sets g.ways g.line_bytes

let show_cache_op = function
  | Access (w, a) -> Printf.sprintf "%s 0x%x" (if w then "W" else "R") a
  | Peek a -> Printf.sprintf "peek 0x%x" a
  | Invalidate a -> Printf.sprintf "inv 0x%x" a
  | Invalidate_all -> "inv-all"

let arb_cache_case =
  let open QCheck.Gen in
  let gen =
    let* main = gen_geometry in
    let* hash = bool in
    let* victim = opt gen_geometry in
    let victim = Option.map (fun v -> { v with sets = 1 }) victim in
    let+ ops = list_size (int_range 1 300) (gen_cache_op main.line_bytes) in
    (main, hash, victim, ops)
  in
  QCheck.make gen ~print:(fun (main, hash, victim, ops) ->
      Printf.sprintf "main %s%s, victim %s: %s" (show_geometry main)
        (if hash then " hashed" else "")
        (match victim with Some v -> show_geometry v | None -> "none")
        (String.concat "; " (List.map show_cache_op ops)))

let qcheck_cache_matches_reference =
  QCheck.Test.make ~count:300 ~name:"Cache agrees with a naive reference model" arb_cache_case
    (fun (main, hash, victim, ops) ->
      let g = Counter.create_group () in
      let mk ?victim ~hash ~name geo =
        Cache.create ?victim ~hash_index:hash ~policy:geo.policy ~name ~sets:geo.sets
          ~ways:geo.ways ~line_bytes:geo.line_bytes g
      in
      let mk_ref ?victim ~hash geo =
        ref_create ?victim ~policy:geo.policy ~hash ~sets:geo.sets ~ways:geo.ways
          ~line_bytes:geo.line_bytes ()
      in
      let c = mk ?victim:(Option.map (mk ~hash:false ~name:"v") victim) ~hash ~name:"c" main in
      let r = mk_ref ?victim:(Option.map (mk_ref ~hash:false) victim) ~hash main in
      let counters_agree () =
        Counter.get g "c.hit" = r.r_hits
        && Counter.get g "c.miss" = r.r_misses
        && Counter.get g "c.victim_hit" = r.r_victim_hits
        && Cache.hits c = r.r_hits && Cache.misses c = r.r_misses
      in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Access (write, addr) ->
              let hit = Cache.access c ~write addr in
              hit = ref_access r addr && Cache.evicted_block c = r.r_evicted
            | Peek addr -> Cache.peek c addr = ref_peek r addr
            | Invalidate addr ->
              Cache.invalidate c addr;
              ignore (ref_remove r addr);
              Option.iter (fun v -> ignore (ref_remove v addr)) r.r_victim;
              true
            | Invalidate_all ->
              Cache.invalidate_all c;
              ref_clear r;
              Option.iter ref_clear r.r_victim;
              true
          in
          same && counters_agree ())
        ops)

(* Reference TLB: per set, a list of (vpn, stamp, alias-hosting) for the
   resident entries, true LRU; the page-table bits in a Hashtbl. *)
type tlb_op = Lookup of int | Lookup_hit of int | Set_alias of int

let qcheck_tlb_matches_reference =
  let gen =
    let open QCheck.Gen in
    let* sets = oneofl [ 1; 2; 4; 8 ] in
    let* ways = int_range 1 4 in
    let op =
      let* vpn = int_bound 40 in
      let* off = int_bound 4095 in
      let addr = (vpn lsl Image.page_bits) + off in
      frequencyl [ (3, Lookup addr); (3, Lookup_hit addr); (1, Set_alias addr) ]
    in
    let+ ops = list_size (int_range 1 300) op in
    (sets, ways, ops)
  in
  let show = function
    | Lookup a -> Printf.sprintf "lookup 0x%x" a
    | Lookup_hit a -> Printf.sprintf "lookup_hit 0x%x" a
    | Set_alias a -> Printf.sprintf "set_alias 0x%x" a
  in
  QCheck.Test.make ~count:300 ~name:"Tlb agrees with a naive reference model"
    (QCheck.make gen ~print:(fun (sets, ways, ops) ->
         Printf.sprintf "%dx%d: %s" sets ways (String.concat "; " (List.map show ops))))
    (fun (sets, ways, ops) ->
      let g = Counter.create_group () in
      let tlb = Tlb.create ~name:"t" ~sets ~ways g in
      let ref_sets = Array.make sets [] in
      let page_table = Hashtbl.create 16 in
      let clock = ref 0 and hits = ref 0 and misses = ref 0 in
      let page_bit vpn = Option.value (Hashtbl.find_opt page_table vpn) ~default:false in
      (* Returns (hit, alias-hosting bit of the now-resident entry). *)
      let ref_lookup addr =
        incr clock;
        let vpn = addr lsr Image.page_bits in
        let s = vpn land (sets - 1) in
        match List.find_opt (fun (v, _, _) -> v = vpn) ref_sets.(s) with
        | Some (_, _, alias) ->
          ref_sets.(s) <- (vpn, !clock, alias) :: List.filter (fun (v, _, _) -> v <> vpn) ref_sets.(s);
          incr hits;
          (true, alias)
        | None ->
          incr misses;
          let resident =
            if List.length ref_sets.(s) < ways then ref_sets.(s)
            else begin
              let oldest, _ =
                List.fold_left
                  (fun (v, st) (v', st', _) -> if st' < st then (v', st') else (v, st))
                  (max_int, max_int) ref_sets.(s)
              in
              List.filter (fun (v, _, _) -> v <> oldest) ref_sets.(s)
            end
          in
          ref_sets.(s) <- (vpn, !clock, page_bit vpn) :: resident;
          (false, page_bit vpn)
      in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Lookup addr -> Tlb.lookup tlb addr = ref_lookup addr
            | Lookup_hit addr -> Tlb.lookup_hit tlb addr = fst (ref_lookup addr)
            | Set_alias addr ->
              Tlb.set_alias_hosting tlb addr;
              let vpn = addr lsr Image.page_bits in
              Hashtbl.replace page_table vpn true;
              let s = vpn land (sets - 1) in
              ref_sets.(s) <-
                List.map (fun (v, st, a) -> (v, st, a || v = vpn)) ref_sets.(s);
              true
          in
          same
          && Counter.get g "t.hit" = !hits
          && Counter.get g "t.miss" = !misses
          && Tlb.alias_hosting_pages tlb = Hashtbl.length page_table
          && List.for_all
               (fun vpn -> Tlb.page_alias_bit tlb vpn = page_bit vpn)
               (List.init 41 Fun.id))
        ops)

let test_hierarchy_latencies () =
  let g = Counter.create_group () in
  let h = Hierarchy.create g in
  let cfg = Hierarchy.default_config in
  let first = Hierarchy.access h ~kind:Data ~write:false 0x8000 in
  Alcotest.(check bool) "cold access pays DRAM + walk" true (first >= cfg.mem_latency);
  let second = Hierarchy.access h ~kind:Data ~write:false 0x8008 in
  Alcotest.(check int) "warm same-line access is an L1 hit" cfg.l1_latency second

let test_hierarchy_bandwidth () =
  let g = Counter.create_group () in
  let h = Hierarchy.create g in
  ignore (Hierarchy.access h ~kind:Data ~write:false 0x8000);
  Alcotest.(check int) "one line fetched" 64 (Hierarchy.mem_bytes h);
  ignore (Hierarchy.access h ~kind:Data ~write:false 0x8000);
  Alcotest.(check int) "hits add no traffic" 64 (Hierarchy.mem_bytes h);
  Hierarchy.mem_traffic h 16;
  Alcotest.(check int) "explicit traffic accounted" 80 (Hierarchy.mem_bytes h)

let test_hierarchy_writeback () =
  let g = Counter.create_group () in
  let h = Hierarchy.create g in
  ignore (Hierarchy.access h ~kind:Data ~write:true 0x8000);
  Alcotest.(check int) "line dirty after the store" 1 (Hierarchy.dirty_line_count h);
  (* Push the dirty line out of both levels with conflicting clean
     fills: the writeback is charged at eviction time, not deferred to
     a refetch that may never come. *)
  for i = 1 to 8192 do
    ignore (Hierarchy.access h ~kind:Data ~write:false (0x8000 + (i * 64 * 512)))
  done;
  Alcotest.(check int) "writeback charged on eviction" 64 (Hierarchy.writeback_bytes h);
  Alcotest.(check int) "dirty entry retired" 0 (Hierarchy.dirty_line_count h);
  let before = Hierarchy.mem_bytes h in
  ignore (Hierarchy.access h ~kind:Data ~write:false 0x8000);
  Alcotest.(check int) "refetch pays only the fill" (before + 64) (Hierarchy.mem_bytes h)

(* Regression for the dirty-line leak: a streaming-store workload whose
   lines are written once and never refetched must still pay writebacks,
   and [dirty_lines] must stay bounded by what the caches can hold
   instead of growing one entry per line touched. *)
let test_hierarchy_streaming_store () =
  let g = Counter.create_group () in
  let h = Hierarchy.create g in
  let cfg = Hierarchy.default_config in
  let lines = 20000 in
  for i = 0 to lines - 1 do
    ignore (Hierarchy.access h ~kind:Data ~write:true (i * cfg.line_bytes))
  done;
  let capacity = (cfg.l1_sets * cfg.l1_ways) + (cfg.l2_sets * cfg.l2_ways) in
  let dirty = Hierarchy.dirty_line_count h in
  Alcotest.(check bool)
    (Printf.sprintf "dirty lines bounded by capacity (%d <= %d)" dirty capacity)
    true (dirty <= capacity);
  let wb = Hierarchy.writeback_bytes h in
  Alcotest.(check bool)
    (Printf.sprintf "evicted stores wrote back (%d bytes)" wb)
    true
    (wb >= (lines - capacity) * cfg.line_bytes)

let () =
  Alcotest.run "mem"
    [
      ( "image",
        [
          Alcotest.test_case "roundtrip" `Quick test_image_roundtrip;
          Alcotest.test_case "page crossing" `Quick test_image_page_crossing;
          Alcotest.test_case "untouched reads zero" `Quick test_image_untouched_zero;
          Alcotest.test_case "resident accounting" `Quick test_image_resident;
          Alcotest.test_case "zero_range" `Quick test_zero_range;
          QCheck_alcotest.to_alcotest qcheck_image_masked_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_image_float_roundtrip;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit after miss" `Quick test_cache_hit_after_miss;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "victim recovery" `Quick test_cache_victim_recovery;
          Alcotest.test_case "victim recovery (hashed index)" `Quick
            test_cache_victim_recovery_hashed_index;
          Alcotest.test_case "victim holds no duplicates" `Quick
            test_cache_victim_no_duplicates;
          Alcotest.test_case "rejects bad geometry" `Quick test_cache_rejects_bad_geometry;
          Alcotest.test_case "Tree-PLRU protects touched way" `Quick
            test_cache_tree_plru_protects_touched;
          Alcotest.test_case "MRU evicts most recent" `Quick
            test_cache_mru_evicts_most_recent;
          Alcotest.test_case "invalidate" `Quick test_cache_invalidate;
          Alcotest.test_case "hashed index spreads strides" `Quick
            test_cache_hashed_index_spreads;
          QCheck_alcotest.to_alcotest qcheck_cache_matches_reference;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "alias-hosting bits" `Quick test_tlb_alias_bits;
          Alcotest.test_case "hit/miss" `Quick test_tlb_hit_miss;
          Alcotest.test_case "rejects non-pow2 sets" `Quick test_tlb_rejects_non_pow2_sets;
          QCheck_alcotest.to_alcotest qcheck_tlb_matches_reference;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "latencies" `Quick test_hierarchy_latencies;
          Alcotest.test_case "bandwidth" `Quick test_hierarchy_bandwidth;
          Alcotest.test_case "writeback" `Quick test_hierarchy_writeback;
          Alcotest.test_case "streaming store" `Quick test_hierarchy_streaming_store;
        ] );
    ]
