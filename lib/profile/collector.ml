open Pibe_ir
module Trace = Pibe_trace.Trace

type lift_stats = {
  lifted_pairs : int;
  dropped_pairs : int;
  recovered_instances : int;
  unrecovered_instances : int;
  recovered_weight : int;
}

let zero_stats =
  {
    lifted_pairs = 0;
    dropped_pairs = 0;
    recovered_instances = 0;
    unrecovered_instances = 0;
    recovered_weight = 0;
  }

(* The per-program half, immutable once built: the profiling image's
   layout plus a dense site table indexed by [site_id].  [site_kind] is
   0 for ids that name no call site of the program, 1 for direct sites,
   2 for indirect (and asm) sites; on a pristine program origin =
   site_id, on an optimized one clones report their inherited origin. *)
type index = {
  layout : Layout.t;
  site_kind : Bytes.t;
  site_origin : int array;
  site_addr : int array;
  provenance : Provenance.t option;
}

(* The per-window half.  Hooked edges are counted in (site, callee)
   cells: [head.(site_id)] is the first cell of that site's chain (-1
   when empty), and the cell arrays hold each cell's site, callee, count
   and next cell in first-occurrence order.  Only raw samples go through
   the LBR ring, draining into [raw] keyed by address pair, with
   [raw_order] keeping their first occurrences (newest first). *)
type t = {
  index : index;
  head : int array;
  mutable cell_site : int array;
  mutable cell_callee : string array;
  mutable cell_count : int array;
  mutable cell_next : int array;
  mutable ncells : int;
  mutable unmapped : int;
      (* hooked edges whose site is not a call site of the program *)
  raw : (int * int, int) Hashtbl.t;
  raw_order : (int * int) list ref;
  lbr : Lbr.t;
  (* top-level (kernel-entry) invocations, observed through
     [Engine.on_entry]: the one entry signal that survives total
     inlining, and the anchor of the carry-forward scaling *)
  external_entries : (string, int) Hashtbl.t;
  mutable last_stats : lift_stats;
  (* lift's scratch tables, emptied by [Hashtbl.reset] on every lift: a
     reset table iterates exactly like a fresh one of the same initial
     size, and reusing it spares the window four large allocations *)
  pairs : (int * int, int) Hashtbl.t;
  site_total : (int, int) Hashtbl.t;
  site_targets : (int, (string, int) Hashtbl.t) Hashtbl.t;
  entry_total : (string, int) Hashtbl.t;
}

let index ?provenance prog =
  let layout = Layout.build prog in
  let iter_sites g =
    Program.iter_funcs prog (fun f ->
        Func.iter_insts f (fun _ i ->
            match i with
            | Types.Call { site; _ } -> g site '\001'
            | Types.Icall { site; _ } | Types.Asm_icall { site; _ } -> g site '\002'
            | Types.Assign _ | Types.Store _ | Types.Observe _ -> ()))
  in
  let n = ref 0 in
  iter_sites (fun site _ -> n := max !n (site.Types.site_id + 1));
  let site_kind = Bytes.make !n '\000' in
  let site_origin = Array.make !n 0 in
  let site_addr = Array.make !n 0 in
  (* in program order, so a duplicated id resolves like the layout's
     table does: the last occurrence wins *)
  iter_sites (fun site kind ->
      let id = site.Types.site_id in
      if id >= 0 then begin
        Bytes.set site_kind id kind;
        site_origin.(id) <- site.Types.site_origin;
        site_addr.(id) <- Layout.site_addr layout id
      end);
  { layout; site_kind; site_origin; site_addr; provenance }

let known_site index id =
  id >= 0 && id < Bytes.length index.site_kind && Bytes.get index.site_kind id <> '\000'

let of_index index =
  let cap = 256 in
  let raw = Hashtbl.create 64 in
  let raw_order = ref [] in
  let drain (r : Lbr.record) =
    let key = (r.Lbr.from_addr, r.Lbr.to_addr) in
    match Hashtbl.find_opt raw key with
    | Some c -> Hashtbl.replace raw key (c + 1)
    | None ->
      Hashtbl.replace raw key 1;
      raw_order := key :: !raw_order
  in
  {
    index;
    head = Array.make (Bytes.length index.site_kind) (-1);
    cell_site = Array.make cap 0;
    cell_callee = Array.make cap "";
    cell_count = Array.make cap 0;
    cell_next = Array.make cap (-1);
    ncells = 0;
    unmapped = 0;
    raw;
    raw_order;
    lbr = Lbr.create ~drain ();
    external_entries = Hashtbl.create 64;
    last_stats = zero_stats;
    pairs = Hashtbl.create 4096;
    site_total = Hashtbl.create 1024;
    site_targets = Hashtbl.create 256;
    entry_total = Hashtbl.create 512;
  }

let create ?provenance prog = of_index (index ?provenance prog)

let reset t =
  for c = 0 to t.ncells - 1 do
    t.head.(t.cell_site.(c)) <- -1
  done;
  t.ncells <- 0;
  t.unmapped <- 0;
  Lbr.flush t.lbr;
  Hashtbl.reset t.raw;
  t.raw_order := [];
  Hashtbl.reset t.external_entries;
  t.last_stats <- zero_stats

let grow t =
  let cap = 2 * Array.length t.cell_site in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.ncells;
    b
  in
  t.cell_site <- extend t.cell_site 0;
  t.cell_callee <- extend t.cell_callee "";
  t.cell_count <- extend t.cell_count 0;
  t.cell_next <- extend t.cell_next (-1)

let add_cell t site callee =
  if t.ncells = Array.length t.cell_site then grow t;
  let c = t.ncells in
  t.ncells <- c + 1;
  t.cell_site.(c) <- site;
  t.cell_callee.(c) <- callee;
  t.cell_count.(c) <- 1;
  t.cell_next.(c) <- t.head.(site);
  t.head.(site) <- c

(* Walk [site]'s cell chain from [c] for [callee]'s cell.  Top level, not
   a local closure, so the per-edge path allocates nothing. *)
let rec count_edge t site callee c =
  if c < 0 then add_cell t site callee
  else
    let name = t.cell_callee.(c) in
    (* the engine hands out the program's own name strings, so the
       physical test almost always settles the compare *)
    if name == callee || String.equal name callee then
      t.cell_count.(c) <- t.cell_count.(c) + 1
    else count_edge t site callee t.cell_next.(c)

let hook t (e : Pibe_cpu.Engine.edge_event) =
  let site = e.Pibe_cpu.Engine.site.Types.site_id in
  if known_site t.index site then count_edge t site e.Pibe_cpu.Engine.callee t.head.(site)
  else t.unmapped <- t.unmapped + 1

let record_raw t ~from_addr ~to_addr = Lbr.record t.lbr ~from_addr ~to_addr

let hook_entry t func =
  Hashtbl.replace t.external_entries func
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.external_entries func))

let instrument t (config : Pibe_cpu.Engine.config) =
  {
    config with
    Pibe_cpu.Engine.on_edge = Some (hook t);
    on_entry = Some (hook_entry t);
  }

let bump tbl key count =
  Hashtbl.replace tbl key (count + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* Resolve the witness-based instance counts to their least fixpoint.
   An instance's count feeds credits back onto the site it consumed and
   onto its callee's entry count; witnesses of other instances may read
   exactly those credited quantities (a witness clone can itself be
   consumed by a later inline; a caller-entries witness reads an entry
   count other instances recover).  Counts start at zero and every
   update is monotone non-decreasing, so iterating to stability yields
   the least solution; the round cap only guards degenerate input.

   When the witness observes nothing — the common case of a leaf callee
   inlined into a loop body, where the edge stream retains no signal at
   all — the resolver falls back to the carry-forward estimate AutoFDO
   and Go's PGO use in the same situation: the training profile's count
   for the consumed site, scaled by the observed/trained entry ratio of
   its caller.  A statically observed witness always takes precedence
   over the estimate. *)
let resolve_instances ~site_total ~entry_total insts =
  let n = Array.length insts in
  let counts = Array.make n 0 in
  let site_credit = Hashtbl.create 64 in
  let entry_credit = Hashtbl.create 64 in
  let observed_site id = Option.value ~default:0 (Hashtbl.find_opt site_total id) in
  let credit tbl key = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
  let observed_entries f =
    Option.value ~default:0 (Hashtbl.find_opt entry_total f) + credit entry_credit f
  in
  let witness_observed (i : Provenance.instance) =
    match i.Provenance.witness with
    | Provenance.W_sites ids -> List.exists (fun id -> observed_site id > 0) ids
    | Provenance.W_caller_entries _ | Provenance.W_none -> false
  in
  let scaled (i : Provenance.instance) =
    if i.Provenance.trained_count <= 0 || i.Provenance.trained_caller_entries <= 0 then 0
    else
      int_of_float
        (float_of_int i.Provenance.trained_count
        *. float_of_int (observed_entries i.Provenance.caller)
        /. float_of_int i.Provenance.trained_caller_entries)
  in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 1000 do
    changed := false;
    incr rounds;
    (* reverse chronological: late instances have un-consumed witnesses,
       so most counts settle in the first round *)
    for j = n - 1 downto 0 do
      let (i : Provenance.instance) = insts.(j) in
      let witnessed =
        match i.Provenance.witness with
        | Provenance.W_sites ids ->
          List.fold_left
            (fun acc id -> max acc (observed_site id + credit site_credit id))
            0 ids
        | Provenance.W_caller_entries f -> observed_entries f
        | Provenance.W_none -> 0
      in
      let w = if witness_observed i then witnessed else max witnessed (scaled i) in
      if w > counts.(j) then begin
        let delta = w - counts.(j) in
        counts.(j) <- w;
        bump site_credit i.Provenance.site_id delta;
        bump entry_credit i.Provenance.callee delta;
        changed := true
      end
    done
  done;
  counts

(* The window's address pairs, in first-occurrence order: the hooked
   cells resolved through the layout (a callee the layout does not know
   is unmapped weight), then the raw samples.  Filling the table in the
   order the ring used to deliver the records keeps its iteration order,
   and with it the lifted profile's, identical to ring-fed collection.
   Returns the table and the unmapped weight. *)
let pair_table t =
  Lbr.flush t.lbr;
  let pairs = t.pairs in
  Hashtbl.reset pairs;
  let unmapped = ref t.unmapped in
  for c = 0 to t.ncells - 1 do
    let count = t.cell_count.(c) in
    match Layout.func_addr t.index.layout t.cell_callee.(c) with
    | to_addr -> bump pairs (t.index.site_addr.(t.cell_site.(c)), to_addr) count
    | exception Not_found -> unmapped := !unmapped + count
  done;
  List.iter (fun key -> bump pairs key (Hashtbl.find t.raw key)) (List.rev !(t.raw_order));
  (pairs, !unmapped)

let lift t =
  let index = t.index in
  let pairs, unmapped = pair_table t in
  let profile = Profile.create () in
  (* 1. aggregate the address pairs back onto site ids / entered funcs *)
  let site_total = t.site_total and site_targets = t.site_targets in
  let entry_total = t.entry_total in
  Hashtbl.reset site_total;
  Hashtbl.reset site_targets;
  Hashtbl.reset entry_total;
  Hashtbl.iter (fun func count -> bump entry_total func count) t.external_entries;
  let dropped = ref unmapped in
  let lifted = ref 0 in
  let is_direct site_id = Bytes.get index.site_kind site_id = '\001' in
  Hashtbl.iter
    (fun (from_addr, to_addr) count ->
      match (Layout.site_at index.layout from_addr, Layout.func_at index.layout to_addr) with
      | Some site_id, Some target when known_site index site_id ->
        lifted := !lifted + count;
        bump site_total site_id count;
        bump entry_total target count;
        if not (is_direct site_id) then begin
          let vp =
            match Hashtbl.find_opt site_targets site_id with
            | Some vp -> vp
            | None ->
              let vp = Hashtbl.create 4 in
              Hashtbl.replace site_targets site_id vp;
              vp
          in
          bump vp target count
        end
      | _ ->
        (* stale address: outside any known site or function range *)
        dropped := !dropped + count)
    pairs;
  (* 2. emission helper: direct counts at an ICP-promoted origin fold
     back into the pristine indirect site's value profile *)
  let add_direct_resolved ~origin ~count =
    match Option.bind index.provenance (fun pv -> Provenance.promotion pv origin) with
    | Some (pristine_origin, target) ->
      Profile.add_indirect profile ~origin:pristine_origin ~target ~count
    | None -> Profile.add_direct profile ~origin ~count
  in
  (* 3. observed sites, keyed by origin *)
  Hashtbl.iter
    (fun site_id count ->
      let origin = index.site_origin.(site_id) in
      if is_direct site_id then add_direct_resolved ~origin ~count
      else
        Hashtbl.iter
          (fun target c -> Profile.add_indirect profile ~origin ~target ~count:c)
          (Option.value ~default:(Hashtbl.create 1) (Hashtbl.find_opt site_targets site_id)))
    site_total;
  Hashtbl.iter (fun func count -> Profile.add_entry profile ~func ~count) entry_total;
  (* 4. inlined-away edges, recovered through the provenance witnesses *)
  let recovered_instances = ref 0 in
  let unrecovered_instances = ref 0 in
  let recovered_weight = ref 0 in
  (match index.provenance with
  | None -> ()
  | Some pv ->
    let insts = Array.of_list (Provenance.instances pv) in
    let counts = resolve_instances ~site_total ~entry_total insts in
    Array.iteri
      (fun j (i : Provenance.instance) ->
        let c = counts.(j) in
        if c > 0 then begin
          incr recovered_instances;
          recovered_weight := !recovered_weight + c;
          add_direct_resolved ~origin:i.Provenance.origin ~count:c;
          Profile.add_entry profile ~func:i.Provenance.callee ~count:c
        end
        else incr unrecovered_instances)
      insts);
  let stats =
    {
      lifted_pairs = !lifted;
      dropped_pairs = !dropped;
      recovered_instances = !recovered_instances;
      unrecovered_instances = !unrecovered_instances;
      recovered_weight = !recovered_weight;
    }
  in
  t.last_stats <- stats;
  if Trace.enabled () then
    Trace.counter ~cat:"profile" "collector:lift"
      [
        ("lifted_pairs", Trace.Int stats.lifted_pairs);
        ("dropped_pairs", Trace.Int stats.dropped_pairs);
        ("recovered_instances", Trace.Int stats.recovered_instances);
        ("unrecovered_instances", Trace.Int stats.unrecovered_instances);
        ("recovered_weight", Trace.Int stats.recovered_weight);
      ];
  profile

let stats t = t.last_stats

let raw_pairs t =
  let pairs, _ = pair_table t in
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) pairs [])
