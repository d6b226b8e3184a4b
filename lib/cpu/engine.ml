(** The execution engine façade: backend selection, compile caching and
    the public API over {!Machine}.

    Two backends share one semantics (see {!Machine} for everything that
    must not drift): {!Interp}, the reference tree-walking interpreter,
    and {!Compile2}, the closure-threaded compiled backend that bakes
    dispatch decisions at compile time.  [create ?backend] picks one per
    engine; the process default (normally [Compiled]) is set once by the
    CLI/bench [--engine] flag through {!set_default_backend}.

    The compiled backend is tiered: every function starts in the
    baseline per-block tier, and a profile counter promotes it to the
    superblock-fused tier once its entry count crosses the engine's
    tier-up threshold (knob: [PIBE_TIERUP] / [--tierup N] /
    [create ?tierup]; [0] disables).  Both tiers are bit-exact, so the
    threshold is a pure performance knob.

    Compilation output — the {!Machine.compiled} view plus the closure
    program — is cached in a small LRU keyed on (program identity x
    tier x speculation variant), held weakly, so alternating over a
    working set of programs (the online dual replay's deployed/pristine
    pair, attack drills over several images) compiles each program
    exactly once per configuration, and a tiered recompile can never
    evict the baseline entry.  Cache traffic is visible as
    ["sched"]-category [engine:compile] spans and
    [compile-cache-hit]/[compile-cache-miss] counters. *)

open Pibe_ir
include Machine

let backend_to_string = function
  | Interp -> "interp"
  | Compiled -> "compiled"

let backend_of_string = function
  | "interp" -> Some Interp
  | "compiled" -> Some Compiled
  | _ -> None

(* Process-wide default, overridable per engine at [create].  Atomic
   because worker domains read it while the main domain parses flags. *)
let default_backend_cell = Atomic.make Compiled
let set_default_backend b = Atomic.set default_backend_cell b
let default_backend () = Atomic.get default_backend_cell

(* Tier-up threshold default: entries of a function beyond this count run
   the fused tier-2 body; 0 disables tier-up (baseline closures only,
   exactly the pre-tier backend).  Seeded from PIBE_TIERUP, overridden by
   the --tierup flag via [set_default_tierup], and per engine at
   [create ?tierup].

   2 entries: lowering is lazy per superblock head, so an eager
   threshold only pays fused lowering for traces the workload actually
   re-dispatches to — the old conservative default of 1024 was tuned
   for the PR5 eager-per-function lowering and left the measurement
   cells (fresh engine, ~tens of top-level entries, thousands of inner
   iterations) stuck in tier 1 forever.  Measured on table1 with the
   interleaved tools/bench_compare.sh protocol: tierup 2 vs 1024 is a
   tens-of-percent end-to-end win, and tierup 2 vs 1 is noise because
   the second entry is already amortized by the inner loops. *)
let tierup_default = 2

let default_tierup_cell =
  Atomic.make
    (match Sys.getenv_opt "PIBE_TIERUP" with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 0 -> n
      | _ -> tierup_default)
    | None -> tierup_default)

let set_default_tierup n = Atomic.set default_tierup_cell (max 0 n)
let default_tierup () = Atomic.get default_tierup_cell

(* Call-seam fusion threshold default: a direct call site fuses across
   the call/return pair into a leaf callee once the callee's per-engine
   entry count crosses this; 0 disables fusion.  Callee heat
   accumulates per CALL, not per top-level entry, so a leaf invoked
   from a loop gets hot within the first handful of iterations; the
   fused span itself is rebuilt at most once per call site (the
   self-promoting seam publishes the fused closure and disappears), so
   an eager threshold of 2 costs one fuse_plan walk per hot seam and
   nothing on cold ones.  Seeded from PIBE_CALLFUSE, overridden by
   --callfuse / [create ?callfuse]. *)
let callfuse_default = 2

let default_callfuse_cell =
  Atomic.make
    (match Sys.getenv_opt "PIBE_CALLFUSE" with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 0 -> n
      | _ -> callfuse_default)
    | None -> callfuse_default)

let set_default_callfuse n = Atomic.set default_callfuse_cell (max 0 n)
let default_callfuse () = Atomic.get default_callfuse_cell

(* Tier-3 threshold default: function entries beyond this count run the
   register-threaded int-coded tier (plain variant only); 0 disables.
   64 entries: the int-stream encoding is a third lowering of the
   trace, so it must amortize over repeated executions, but the static
   shape gate in compile2 ([t3_profitable]) already keeps it off
   call-dominated traces where it can't win — so the threshold only
   needs to skip genuinely short-lived functions, not act as the
   profitability filter.  Seeded from PIBE_TIER3, overridden by
   --tier3 / [create ?tier3]. *)
let tier3_default = 64

let default_tier3_cell =
  Atomic.make
    (match Sys.getenv_opt "PIBE_TIER3" with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 0 -> n
      | _ -> tier3_default)
    | None -> tier3_default)

let set_default_tier3 n = Atomic.set default_tier3_cell (max 0 n)
let default_tier3 () = Atomic.get default_tier3_cell

(* ----------------------- compile cache ------------------------- *)

(* Bounded LRU over physically-distinct programs, MRU first.  The common
   patterns are (a) many engines in a row over one image — attack drills,
   measurement cells — and (b) an alternating working set — the online
   dual replay flips deployed/pristine every window, each controller
   rebuild adds one fresh program, and parallel experiment cells sweep
   several images at once.  64 entries cover all of them with room for
   wide sweeps.  Guarded by a mutex because engines are created from
   worker domains too; a miss compiles outside the lock (duplicated work
   is pure), and a racing domain's finished entry is adopted over our
   own.

   Entries hold their program only weakly, keyed on its [uid]: once
   nothing else references a program (the online loop drops every image
   it deploys or rebuilds), the next cache access finds the weak pointer
   empty and releases the compiled view and closures, instead of
   keeping about 10 MB per image live until 64 newer entries push it
   out.  The released entry keeps its LRU slot until evicted in order,
   and a dead program's uid can never be looked up again, so hits,
   misses and evictions are exactly those of a cache holding every
   program.  Lookups compare uids and test liveness with [Weak.check]:
   [Weak.get] on a dead program during marking would revive it. *)

(* An entry is keyed on (program uid x tier x speculation variant):
   tiered closure programs carry per-function fused bodies and a counting
   dispatcher the baseline must not pay for, and speculation-on engines
   link the taint-threading closure variants — so the three axes get
   separate entries and can never evict each other's lowering work
   (pinned by the tier-keying regression test in test_backend.ml). *)
type cache_entry = {
  cuid : int;
  cprog : Program.t Weak.t;  (* one cell *)
  ctiered : bool;
  cspec : bool;
  ccallfuse : int;
      (* the callfuse threshold is baked into lowering (it decides which
         call seams fuse), so it is part of the key; the tier-up and
         tier-3 thresholds stay per-engine and share one entry *)
  mutable cdata : (compiled * Compile2.prog) option;  (* [None] once the program died *)
}

let cache_capacity = 64
let compile_lock = Mutex.create ()
let cache : cache_entry list ref = ref []
let cache_hits = Atomic.make 0
let cache_misses = Atomic.make 0
let compile_cache_stats () = (Atomic.get cache_hits, Atomic.get cache_misses)

(* Cache traffic depends on scheduling (which domain compiled first), so
   the events live in the "sched" category that [Trace.canonical] strips
   — like the pool's own events. *)
let note_cache ~hit =
  Atomic.incr (if hit then cache_hits else cache_misses);
  if Pibe_trace.Trace.enabled () then
    Pibe_trace.Trace.counter ~cat:"sched"
      (if hit then "compile-cache-hit" else "compile-cache-miss")
      [ ("count", Pibe_trace.Trace.Int 1) ]

let rec truncate n = function
  | [] -> []
  | _ :: _ when n = 0 -> []
  | e :: rest -> e :: truncate (n - 1) rest

(* Splits out the entry for [prog] under the given tier/spec key, if
   cached: (entry, others). *)
let take_entry prog ~tiered ~spec ~callfuse entries =
  let uid = prog.Program.uid in
  let rec go acc = function
    | [] -> None
    | ({ cdata = Some data; _ } as e) :: rest
      when e.cuid = uid && e.ctiered = tiered && e.cspec = spec && e.ccallfuse = callfuse ->
      Some (e, data, List.rev_append acc rest)
    | e :: rest -> go (e :: acc) rest
  in
  go [] entries

(* Drops the compiled data of entries whose program is gone.  Called
   under [compile_lock]. *)
let release_dead entries =
  List.iter
    (fun e -> if e.cdata <> None && not (Weak.check e.cprog 0) then e.cdata <- None)
    entries

let entry_for prog ~tiered ~spec ~callfuse =
  Mutex.lock compile_lock;
  release_dead !cache;
  match take_entry prog ~tiered ~spec ~callfuse !cache with
  | Some (e, data, others) ->
    cache := e :: others;
    Mutex.unlock compile_lock;
    note_cache ~hit:true;
    data
  | None ->
    Mutex.unlock compile_lock;
    note_cache ~hit:false;
    let fresh =
      Pibe_trace.Trace.span ~cat:"sched" "engine:compile" (fun () ->
          let cview = compile prog in
          let mem_len = prog.Program.globals_size in
          let cclosures =
            if tiered then Compile2.compile_tiered cview ~mem_len ~callfuse
            else Compile2.compile cview ~mem_len
          in
          (cview, cclosures))
    in
    Mutex.lock compile_lock;
    let e, data, others =
      match take_entry prog ~tiered ~spec ~callfuse !cache with
      | Some (e, data, others) -> (e, data, others)  (* another domain won the race *)
      | None ->
        let cprog = Weak.create 1 in
        Weak.set cprog 0 (Some prog);
        ( { cuid = prog.Program.uid; cprog; ctiered = tiered; cspec = spec;
            ccallfuse = callfuse; cdata = Some fresh },
          fresh,
          !cache )
    in
    cache := truncate cache_capacity (e :: others);
    Mutex.unlock compile_lock;
    data

(* ------------------------ construction ------------------------- *)

let create ?(config = default_config) ?backend ?tierup ?callfuse ?tier3 prog =
  let backend =
    match backend with Some b -> b | None -> Atomic.get default_backend_cell
  in
  let tierup =
    match tierup with Some n -> max 0 n | None -> Atomic.get default_tierup_cell
  in
  (* Only compiled engines tier up; [tierup = 0] pins the baseline
     closure program (the --tierup 0 parity leg). *)
  let tiered = backend = Compiled && tierup > 0 in
  (* Call-seam fusion and tier 3 both ride on the per-engine entry
     counters, which only tiered engines maintain — [--tierup 0] implies
     both off. *)
  let callfuse =
    if not tiered then 0
    else
      match callfuse with
      | Some n -> max 0 n
      | None -> Atomic.get default_callfuse_cell
  in
  let tier3 =
    if not tiered then 0
    else
      match tier3 with Some n -> max 0 n | None -> Atomic.get default_tier3_cell
  in
  let spec = config.speculation <> None in
  let compiled, closures = entry_for prog ~tiered ~spec ~callfuse in
  let n = Array.length compiled.cby_id in
  {
    prog;
    funcs = compiled.cfuncs;
    by_id = compiled.cby_id;
    fptr_table = prog.Program.fptr_table;
    fptr_ids = compiled.cfptr_ids;
    bwds = Array.map (fun cf -> config.bwd_protection cf.f.fname) compiled.cby_id;
    (* Protections are per-engine (the config closes over a hardened
       image), but [Pass.fwd_protection] is a pure site-keyed lookup, so
       baking it into a slot-indexed array at create time is exact. *)
    fwd_prots = Array.map config.fwd_protection compiled.cicall_sites;
    sizes = Array.make (max n 1) (-1);
    mem = Program.initial_memory prog;
    tbtb = Btb.create ();
    trsb = Rsb.create ();
    tpht = Pht.create ();
    ticache = Icache.create ~capacity_bytes:config.icache_bytes;
    cfg = config;
    fuel_cap = config.fuel;
    ctrs =
      {
        calls = 0;
        icalls = 0;
        rets = 0;
        insts = 0;
        btb_misses = 0;
        rsb_misses = 0;
        pht_misses = 0;
        stack_bytes = 0;
        peak_stack_bytes = 0;
      };
    backend;
    tier_threshold = (if tiered then tierup else 0);
    tier_counts = (if tiered then Array.make n 0 else [||]);
    tier3_threshold = tier3;
    callfuse_threshold = callfuse;
    backend_stats =
      (match backend with
      | Interp -> fun () -> []
      | Compiled ->
        fun () -> Compile2.prog_stats closures);
    exec_entry =
      (match backend with
      | Interp -> Interp.entry
      | Compiled -> Compile2.entry closures);
    frames = Array.make 0 [||];
    taint_frames = Array.make 0 [||];
    cur_regs = [||];
    cur_taint = [||];
    cur_depth = 0;
    cur_ret_to = 0;
    call_memo = None;
    cyc = 0;
    steps = 0;
    trace_rev = [];
  }

let func_id t name =
  match Hashtbl.find_opt t.funcs name with
  | Some cf -> cf.id
  | None -> raise (Runtime_error ("call to unknown function @" ^ name))

let call t name args =
  let cf =
    (* Workload drivers call the same entry point per request, passing
       the same physical string; skip the hash on that path. *)
    match t.call_memo with
    | Some (n, cf) when n == name -> cf
    | _ -> (
      match Hashtbl.find_opt t.funcs name with
      | Some cf ->
        t.call_memo <- Some (name, cf);
        cf
      | None -> raise (Runtime_error ("call to unknown function @" ^ name)))
  in
  (* the kernel-entry boundary is observable (perf sees the syscall
     dispatch), unlike in-program transfers which go through [on_edge] *)
  (match t.cfg.on_entry with None -> () | Some f -> f name);
  if t.cfg.rsb_refill then begin
    (* stuffing: 16 dummy pushes at the entry point *)
    charge t 12;
    Rsb.flush t.trsb;
    (match t.cfg.speculation with
    | Some s -> Speculation.clear_user_rsb_desync s
    | None -> ())
  end;
  enter_code t cf;
  Rsb.push t.trsb top_id;
  t.exec_entry t cf args

let speculation t = t.cfg.speculation
let backend t = t.backend
let tierup_threshold t = t.tier_threshold
let tier3_threshold t = t.tier3_threshold
let callfuse_threshold t = t.callfuse_threshold
let backend_stats t = t.backend_stats ()

let entry_count t name =
  if Array.length t.tier_counts = 0 then 0
  else
    match Hashtbl.find_opt t.funcs name with
    | Some cf -> t.tier_counts.(cf.id)
    | None -> 0

let promoted t name =
  t.tier_threshold > 0 && entry_count t name > t.tier_threshold

let tier3_promoted t name =
  t.tier3_threshold > 0 && entry_count t name > t.tier3_threshold

(* How many functions this engine has pushed past its tier-3 threshold —
   a pure function of the engine's own entry counters, so deterministic
   at any --jobs (unlike the prog-level lowering stats). *)
let tier3_promotions t =
  if t.tier3_threshold <= 0 then 0
  else
    Array.fold_left
      (fun acc c -> if c > t.tier3_threshold then acc + 1 else acc)
      0 t.tier_counts

let cycles t = t.cyc
let reset_cycles t = t.cyc <- 0
let counters t = t.ctrs
let trace t = List.rev t.trace_rev
let clear_trace t = t.trace_rev <- []
let memory t = t.mem
let btb t = t.tbtb
let rsb t = t.trsb
let pht t = t.tpht
let icache t = t.ticache
let program t = t.prog

(* One structured-metrics sample of everything this engine counts.  The
   values are simulated quantities (pure functions of program + seeds), so
   the emitted event content is deterministic; cost is one atomic load
   when trace collection is off. *)
let trace_counters ?(cat = "cpu") ~name t =
  if Pibe_trace.Trace.enabled () then begin
    let open Pibe_trace.Trace in
    let c = t.ctrs in
    counter ~cat name
      [
        ("cycles", Int t.cyc);
        ("insts", Int c.insts);
        ("calls", Int c.calls);
        ("icalls", Int c.icalls);
        ("rets", Int c.rets);
        ("btb_miss", Int c.btb_misses);
        ("rsb_miss", Int c.rsb_misses);
        ("pht_miss", Int c.pht_misses);
        ("icache_hit", Int (Icache.hit_count t.ticache));
        ("icache_miss", Int (Icache.miss_count t.ticache));
        ("peak_stack_bytes", Int c.peak_stack_bytes);
        ( "spec_events",
          Int
            (match t.cfg.speculation with
            | None -> 0
            | Some s -> List.length (Speculation.events s)) );
        ("tier3_promotions", Int (tier3_promotions t));
      ];
    (* Lowering stats (fused call seams, tier-3 coverage) are
       scheduling-dependent — whichever engine lowers first moves them —
       so they ride in a separate "sched"-category sample that
       [Trace.canonical] strips, keeping the [cat] sample above
       deterministic. *)
    match t.backend_stats () with
    | [] -> ()
    | stats ->
      counter ~cat:"sched" (name ^ ":lowering")
        (List.map (fun (k, v) -> (k, Int v)) stats)
  end
