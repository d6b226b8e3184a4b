(** The execution engine: a cycle-accounting executor with two backends.

    One engine instance models one machine: global memory, BTB, RSB and
    instruction cache persist across top-level calls, exactly like kernel
    state persists across syscalls.  Costs follow {!Cost}; indirect-branch
    costs depend on the protection looked up through the configuration
    (supplied by the hardening pass's image, or all-[none] by default).

    [create] interns every function name to a dense integer id and
    compiles the program into a pre-resolved form: direct-call targets and
    fptr-table entries become function references, the BTB/RSB/i-cache are
    keyed by id, per-function constants (PHT key base, frame bytes,
    backward protection) are computed once, and register frames come from
    a per-depth pool — so the per-call hot path performs no string
    hashing, no hashtable probes, and no allocation.  Strings survive only
    at the API edges (entry points, edge events, traces, errors).

    {2 Backends and the parity contract}

    Two interchangeable execution backends run the compiled view:

    - [Compiled] (the default): a closure-threading stage additionally
      lowers every instruction, expression and terminator into a
      pre-specialized closure — operand kinds, binop selection, costs,
      resolved callee ids, PHT keys, indirect-call protection kinds and
      the speculation-off fast path are baked at closure construction,
      so the hot loop does no constructor matching at all.  Straight-line
      runs of simple instructions are fused into segments with batched
      fuel/cycle/counter accounting, and a {e profile-guided second
      tier} extends that fusion across unconditional fallthrough edges:
      function entries are counted per engine, and past the tier-up
      threshold ([PIBE_TIERUP] / [--tierup N] / [create ?tierup]; [0]
      disables) a function's hot single-predecessor [Jmp] chains run as
      single superblock closures with one pre-summed cycle/step constant
      — branch-predictor, RSB and i-cache state is only touched at
      conditional branches, indirect transfers and call boundaries.
      Past a second, higher threshold ([PIBE_TIER3] / [--tier3 N] /
      [create ?tier3]; [0] disables) the hottest traces relower once
      more into a {e register-threaded tier 3}: a flat int-coded
      instruction stream driven by one dispatch loop, with no closure
      call per instruction at all.  Orthogonally, {e call-seam fusion}
      ([PIBE_CALLFUSE] / [--callfuse N] / [create ?callfuse]; [0]
      disables) specializes hot (caller, callee) pairs: a direct call
      into a profile-hot leaf callee is lowered as one closure spanning
      the call + body + return with a single batched
      fuel/step/instruction/cycle update at the seam.
    - [Interp]: the reference tree-walking interpreter, kept as the
      executable semantics.

    The contract is bit-exactness: for any program, config and workload
    the two backends — at {e every} tier-up setting — produce identical
    cycles, counters, traces, memory, speculation events and errors, so
    when (or whether) a function tiers up is unobservable except as
    wall-clock speed.  The golden fingerprints in [test/test_measure.ml]
    and the differential suite in [test/test_backend.ml] pin it; [make
    parity] byte-diffs full bench output across interp, [--tierup 0] and
    the tiered default.

    Compilation output is cached in a small LRU keyed on (program
    identity x tier x speculation variant), so repeated [create]
    over a working set of programs — attack drills, measurement cells,
    the online dual replay's deployed/pristine alternation — compiles
    each program exactly once per configuration, and tiered recompiles
    never evict baseline entries.  The cache holds programs weakly: once
    a program is unreachable elsewhere, its compiled form is released
    at the next cache access.  Compile cost and cache traffic are
    visible as ["sched"]-category [engine:compile] spans and
    [compile-cache-hit]/[compile-cache-miss] trace counters; tier-2
    lowering additionally emits [engine:tierup] spans with
    [tierup-count], [fused-superblocks] and [segment-coverage] counters,
    call-seam fusion emits [engine:callfuse] spans with
    [call-fused-seams] counters, and tier-3 lowering emits
    [engine:tier3] spans with [tier3-promotions] and [tier3-inst-coverage]
    counters.  The callfuse threshold is part of the cache key (it
    changes lowering); the tier-up and tier-3 thresholds stay per-engine
    and share one cached program.

    The engine doubles as
    - the {e profiling binary}: [on_edge] observes every resolved call
      edge (the simulated LBR feed), and
    - the {e attack testbed}: with [speculation] set, attacker-visible
      transient entries are recorded at unprotected indirect branches. *)

open Pibe_ir

type backend =
  | Interp  (** reference tree-walking interpreter *)
  | Compiled  (** closure-threaded compiled backend *)

val backend_to_string : backend -> string

val backend_of_string : string -> backend option
(** Recognizes ["interp"] and ["compiled"]. *)

val set_default_backend : backend -> unit
(** Sets the process-wide backend used by [create] when no explicit
    [?backend] is given (initially [Compiled]).  Wired to the [--engine]
    flag of [pibe_cli] and the bench harness. *)

val default_backend : unit -> backend

val set_default_tierup : int -> unit
(** Sets the process-wide tier-up threshold used by [create] when no
    explicit [?tierup] is given: a function's entry count must exceed it
    (per engine) before the function runs in the superblock-fused tier.
    [0] disables tier-up entirely — the compiled backend then behaves
    exactly like the pre-tier baseline.  Initially [2] (lowering is
    lazy per superblock head, so promotion only pays for traces the
    workload re-dispatches to), or the value of the [PIBE_TIERUP]
    environment variable;
    wired to the [--tierup] flag of [pibe_cli] and the bench harness.
    Clamped at 0. *)

val default_tierup : unit -> int

val set_default_callfuse : int -> unit
(** Sets the process-wide call-seam fusion threshold used by [create]
    when no explicit [?callfuse] is given: a direct call site fuses
    across the call/return pair once its (leaf, bounded, straight-line)
    callee's per-engine entry count crosses it.  [0] disables fusion.
    Initially [2] (callee heat accumulates per call, so loop-invoked
    leaves cross it within a handful of iterations, and a seam fuses at
    most once), or the value of the [PIBE_CALLFUSE] environment
    variable; wired to the
    [--callfuse] flag of [pibe_cli] and the bench harness.  Clamped
    at 0.  Only meaningful on tiered engines ([--tierup 0] implies no
    fusion). *)

val default_callfuse : unit -> int

val set_default_tier3 : int -> unit
(** Sets the process-wide tier-3 threshold used by [create] when no
    explicit [?tier3] is given: entries of a function beyond this count
    run the register-threaded int-coded tier (speculation-off variant
    only; the spec variant caps at tier 2).  [0] disables tier 3.
    Initially [64] (the static shape gate in the lowering keeps tier 3
    off call-dominated traces, so the threshold only filters
    short-lived functions), or the value of the [PIBE_TIER3]
    environment variable; wired to the [--tier3] flag of [pibe_cli] and
    the bench harness.  Clamped at 0.  Only meaningful on tiered
    engines. *)

val default_tier3 : unit -> int

type edge_kind =
  | Edge_direct
  | Edge_indirect
  | Edge_asm

type edge_event = {
  site : Types.site;
  caller : string;
  callee : string;
  kind : edge_kind;
}

type config = {
  fwd_protection : Types.site -> Protection.forward;
  bwd_protection : string -> Protection.backward;
  cfi_valid :
    site:Types.site -> target:string -> protection:Protection.forward -> bool;
      (** Target-set oracle for the CFI forward kinds ([F_fineibt],
          [F_coarse_cfi]): a transient entry into [target] only lands
          when this returns true (the hardening pass installs the
          landing-pad / address-taken analysis here; defaults to
          always-valid, i.e. a label-only check) *)
  fwd_override : (site:Types.site -> target:string -> int) option;
      (** When set, indirect-call transfer cycles come from this hook
          instead of the protection/BTB machinery — used by stateful
          comparators such as the JumpSwitches model, which patch call
          sites at runtime. *)
  icache_bytes : int;  (** 0 disables the i-cache model *)
  footprint : Types.func -> int;  (** code footprint used by the i-cache *)
  record_trace : bool;
  on_edge : (edge_event -> unit) option;
  on_entry : (string -> unit) option;
      (** called on every top-level {!call} with the entered function —
          the kernel-entry (syscall) boundary, which a hardware profiler
          observes even when every in-kernel call has been inlined away;
          in-program transfers go through [on_edge] instead *)
  on_exit : (string -> unit) option;
      (** called when a function activation returns (profiler support;
          pairs with the entry visible through [on_edge]) *)
  speculation : Speculation.t option;
  fuel : int;  (** interpreter step budget; guards against runaway code *)
  extra_call_cycles : int;
      (** flat per-direct-call surcharge (models stackprotector/safestack
          prologue work in Table 1's non-transient rows) *)
  extra_icall_cycles : int;  (** per-indirect-call surcharge (LLVM-CFI check) *)
  extra_ret_cycles : int;  (** per-return surcharge (canary check) *)
  rsb_refill : bool;
      (** stuff the RSB on every kernel entry (the ad-hoc Ret2spec
          mitigation of paper §6.4): clears user-planted desyncs — and
          only those — at a small fixed entry cost *)
}

val default_config : config
(** No protection, 32 KiB i-cache, [Layout.func_size] footprints, no trace,
    no hooks, fuel of 100 million steps. *)

type counters = {
  mutable calls : int;
  mutable icalls : int;
  mutable rets : int;
  mutable insts : int;
  mutable btb_misses : int;
  mutable rsb_misses : int;
  mutable pht_misses : int;
  mutable stack_bytes : int;  (** current stack footprint (frames * regs) *)
  mutable peak_stack_bytes : int;
}

type t

exception Runtime_error of string
exception Out_of_fuel

val create :
  ?config:config ->
  ?backend:backend ->
  ?tierup:int ->
  ?callfuse:int ->
  ?tier3:int ->
  Program.t ->
  t
(** [backend] defaults to {!default_backend}[ ()]; [tierup] to
    {!default_tierup}[ ()], [callfuse] to {!default_callfuse}[ ()] and
    [tier3] to {!default_tier3}[ ()] — all three only affect the tiered
    compiled backend (with [tierup = 0], callfuse and tier3 are forced
    to 0 too).  All backends, tier and fusion settings are bit-exact
    against each other (see the parity contract above). *)

val backend : t -> backend
(** The backend this engine executes with. *)

val tierup_threshold : t -> int
(** This engine's tier-up threshold: entries of a function beyond this
    count run the fused tier.  [0] means tier-up is off (interp engines,
    [--tierup 0], or a non-compiled backend). *)

val entry_count : t -> string -> int
(** How many times this engine entered the function (tier-up profile
    counter).  Counters are {e per engine}, so tier-up decisions are a
    deterministic function of each engine's own workload regardless of
    how many engines run in parallel.  [0] for unknown functions or when
    tier-up is off. *)

val promoted : t -> string -> bool
(** Whether the function's entry count has crossed this engine's tier-up
    threshold, i.e. further calls run the superblock-fused tier. *)

val tier3_threshold : t -> int
(** This engine's tier-3 threshold: entries of a function beyond this
    count run the register-threaded int-coded tier (plain variant).
    [0] means tier 3 is off. *)

val callfuse_threshold : t -> int
(** The call-seam fusion threshold this engine's closure program was
    compiled with ([0] = fusion off). *)

val tier3_promoted : t -> string -> bool
(** Whether the function's entry count has crossed this engine's tier-3
    threshold, i.e. further speculation-off calls run the
    register-threaded tier. *)

val backend_stats : t -> (string * int) list
(** Lowering statistics of the shared closure program this engine runs
    ([call-fused-seams], [callfuse-promotions], [tier3-traces],
    [tier3-coded-insts], [tier3-total-insts]); empty for the interpreter
    backend.  Lowering is lazy and triggered by whichever engine gets
    there first, so these are {e scheduling-dependent} — they are
    surfaced under the ["sched"] trace category by {!trace_counters},
    never mixed into deterministic samples. *)

val compile_cache_stats : unit -> int * int
(** Process-wide [(hits, misses)] of the compile LRU since start — a hit
    means [create] reused a previously compiled program (same program
    value, tier and speculation variant). *)

val call : t -> string -> int list -> int option
(** [call t fname args] runs the function to completion and returns its
    return value.  Raises [Runtime_error] on wild indirect calls or
    unknown functions; [Out_of_fuel] when the step budget is exhausted. *)

val cycles : t -> int
(** Accumulated simulated cycles since creation (or the last
    [reset_cycles]). *)

val reset_cycles : t -> unit
val counters : t -> counters
val trace : t -> int list
(** Observed values in program order (empty unless [record_trace]). *)

val clear_trace : t -> unit
val memory : t -> int array
(** The live global memory (mutable; workloads flip dispatch cells here). *)

val btb : t -> Btb.t
val rsb : t -> Rsb.t
val pht : t -> Pht.t
val icache : t -> Icache.t
val program : t -> Program.t

val func_id : t -> string -> int
(** The interned id of a function — the value the BTB/RSB/i-cache key on.
    Raises [Runtime_error] for names not in the program. *)

val func_name : t -> int -> string
(** Inverse of {!func_id} ([top_id] renders as ["#top"]). *)

val top_id : int
(** Sentinel id of the synthetic top-of-stack return continuation pushed
    before each top-level [call]. *)

val speculation : t -> Speculation.t option
(** The drill state this engine was configured with, if any. *)

val trace_counters : ?cat:string -> name:string -> t -> unit
(** Emit one {!Pibe_trace.Trace.counter} sample named [name] (category
    [cat], default ["cpu"]) carrying this engine's accumulated counters:
    cycles, instructions, calls/icalls/rets, BTB/RSB/PHT misses, i-cache
    hits+misses, peak stack bytes, recorded speculation events, and the
    count of functions past the tier-3 threshold ([tier3_promotions]).
    All values are simulated and deterministic; when trace collection is
    disabled this is a no-op costing one atomic load.  For compiled
    engines a second, ["sched"]-category sample named [name ^
    ":lowering"] carries the scheduling-dependent {!backend_stats}. *)
