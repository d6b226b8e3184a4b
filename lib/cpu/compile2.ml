(** Closure-threaded compiled execution backend with a profile-guided
    fused tier.

    Lowers every {!Machine.cinst}, expression and terminator into a
    pre-specialized OCaml closure once per program, so the hot loop runs
    flat closure arrays with zero constructor matching and zero
    per-activation closure allocation: operand kinds ([Imm] vs [Reg]),
    binop selection (down to constant-folded immediate pairs), statically
    bounds-checked global loads and stores, per-instruction cycle costs,
    resolved direct-call targets, PHT keys, switch-ladder costs and
    indirect-call protection slots are all baked at closure-construction
    time.

    Straight-line runs of simple instructions (assign / store / observe,
    including statically bounds-checked loads) are fused into {e
    segments} with batched accounting: one fuel check, one
    step/instruction/cycle bump per segment instead of one per
    instruction.  Exactness is preserved on every path — each
    potentially-faulting instruction carries baked rollback deltas
    (cycles, steps and instruction counts kept separate, because fused
    jump seams step without retiring an instruction) that rewind the
    not-yet-earned remainder of the batch before raising, and a segment
    that could exhaust its fuel budget falls back to a per-item slow path
    that dies at exactly the interpreter's instruction — so cycles,
    counters and errors stay bit-exact even mid-segment (pinned by the
    out-of-fuel and wild-icall differential tests in
    [test/test_backend.ml]).

    {2 Tiers}

    Three lowering tiers share the closure machinery:

    - {e Tier 1} (baseline) lowers one closure per basic block, segments
      fused within the block — the only tier of the PR5 backend, and the
      authoritative cheap tier.
    - {e Tier 2} (fused) additionally performs {e superblock fusion}: a
      maximal chain of blocks linked by unconditional [Jmp] fallthrough
      edges into single-predecessor blocks is lowered as ONE closure, its
      segments fused {e across} the seams with one pre-summed cycle/step
      constant per segment.  A seam contributes a zero-body [SJump] item
      (the seam's fuel step and jump cost are folded into the batch
      header), so a hot K-block chain pays one fuel check and no
      per-block closure dispatch at all.  Branch predictor, RSB, i-cache
      and PHT state are only materialized at conditional branches,
      indirect transfers and call boundaries — exactly where the
      interpreter touches them.
    - {e Tier 3} (register-threaded) relowers the plain variant of the
      very hottest traces one more time: instead of one closure per
      instruction, the whole trace becomes a flat int-coded instruction
      stream driven by a single tail-recursive dispatch loop over the
      unboxed register array — no closure call per instruction at all.
      Operands, costs and rollback deltas are encoded inline in the
      stream; segment batch headers become one [BATCH] word whose fuel
      guard falls back to the tier-2 per-item slow path; instructions the
      encoder cannot express (statically out-of-bounds accesses) keep
      their tier-1 closure behind a [PB] escape, and calls/icalls keep
      their chunk closures behind [CX] — so coverage is total and
      semantics are shared, not duplicated.  Tier 3 exists only for the
      speculation-off variant: drill configurations are short-lived, and
      keeping taint threading out of the loop is what keeps its dispatch
      flat.

    {2 Call-seam fusion}

    Orthogonally to the tiers, any lowering may fuse a {e direct call
    into a hot leaf callee} across the call/return pair ([--callfuse N] /
    [PIBE_CALLFUSE]; [0] disables).  A statically eligible callee — valid,
    all blocks simple instructions linked by [Jmp] and ending in [Ret],
    bounded body size, so in particular no recursion and no indirect
    control flow — is lowered as one closure at the call site: one fuel
    guard and one batched step/instruction/cycle update spanning the call
    instruction, the whole callee body and the return step, with the
    matched RSB push/pop, i-cache touch, frame setup and
    [do_ret] performed once at the seam.  Sites are specialized {e by
    (caller, callee) pair} and selected by profile: a seam lowered before
    its callee is hot installs a self-promoting chunk that watches the
    dispatching engine's per-function entry counter
    ({!Machine.t.tier_counts}) and swaps in the fused closure once the
    callee crosses the callfuse threshold; a seam lowered after simply
    bakes the fused closure directly.  Fuel exhaustion inside the fused
    span is guarded up front (the unfused path replays it exactly), and a
    faulting instruction in the callee body rewinds the unearned batch
    remainder — identical machinery to segment batching.

    Tier-up is profile-guided ({e PGO applied to our own engine}): a
    tiered program routes every function entry through a counting
    dispatcher that bumps a {e per-engine} counter
    ({!Machine.t.tier_counts}) and switches to the fused body once the
    count crosses the engine's {!Machine.t.tier_threshold}.  Counters are
    per-engine so tier-up decisions are a deterministic function of each
    engine's own workload at any [--jobs]; the fused closures themselves
    are lowered lazily in the shared program (double-checked under
    [link_lock], same as tier 1), so a working set of engines pays each
    function's fused lowering once.  Both tiers are bit-exact against
    the interpreter, so {e when} a function tiers up is unobservable in
    cycles, counters, traces or errors — the baseline tier stays
    authoritative.

    Each block is compiled (per tier) twice — a plain variant for the
    common speculation-off configuration and a spec variant threading the
    taint file — and call closures jump straight to the matching variant
    of their callee, so the choice is made once per top-level entry, not
    per instruction.  All four variants are lowered lazily, per function,
    on the first call (or first post-threshold call) that reaches them.

    Everything whose semantics is shared with the reference interpreter
    (indirect-branch transfer, return path, frame pools, step/fuel
    accounting) is called through {!Machine}, which is what makes the
    backend cycle-, counter- and speculation-exact against {!Interp}
    (pinned by [test/test_measure.ml] and [test/test_backend.ml]).

    Closures capture only per-program data — never an engine — so one
    compiled program is shared by every engine created on it, across
    domains, exactly like {!Machine.compiled}. *)

open Pibe_ir
open Types
open Machine
module Trace = Pibe_trace.Trace

(* The whole execution state of the running activation — register frame,
   spec-variant taint frame, depth, return-prediction target — is
   threaded through mutable fields of [Machine.t] ([cur_regs],
   [cur_taint], [cur_depth], [cur_ret_to]) rather than closure
   arguments.  That makes every hot closure type below arity-1, which
   ocamlopt applies as ONE indirect call at the call site; at arity >= 2
   every dispatch would detour through the program-wide [caml_applyN]
   trampolines — an extra call frame, an arity check, and a single
   shared indirect-jump site that aliases every dispatch in the program
   in the host's branch-target predictor.  Call chunks save the four
   fields in locals, install the callee's activation, and restore after
   the callee returns; frames come from per-depth pools, so the pointer
   publications usually re-store an unchanged value (see
   [publish_regs]). *)

(* entry of one function variant; expects the activation installed *)
type fexec = Machine.t -> int option

(* one lowered block/superblock; terminators chain through these *)
type bexec = Machine.t -> int option

(* one chunk (fused segment or complex instruction) of a chain *)
type iexec = Machine.t -> unit

(* Fused-segment instruction bodies: accounting is handled by the
   segment header, and the running frame (and spec-variant taint frame)
   is read from [t.cur_regs]/[t.cur_taint], which every invoking chunk
   publishes before its item run.  That makes bodies arity-1 closures
   over [t] alone — the one unknown-closure arity ocamlopt applies as a
   direct indirect call at the call site.  At arity >= 2 every body
   dispatch would go through the program-wide [caml_apply2] trampoline:
   an extra call frame, an arity check, and — worse — a single shared
   indirect-jump site that aliases every body in the program in the
   host's branch-target predictor.  Threading the frame through [t]
   spreads those jumps back out to one predictable site per segment
   position. *)
type pbody = Machine.t -> unit
type tbody = Machine.t -> unit

type cfunc2 = {
  c2 : cfunc;
  zeroset : int array;
      (* registers some path from entry may read before writing, sorted;
         the only slots of a pooled frame whose initial 0 / [None] is
         observable — see [zeroset_of] *)
  mutable fexec_plain : fexec;
      (* what call closures invoke: in a baseline program, the linked
         tier-1 body (trampoline until first call); in a tiered program,
         the permanent counting dispatcher *)
  mutable fexec_spec : fexec;
  (* per-tier bodies behind the dispatcher of a tiered program; each
     starts as a lazy-linking trampoline (written only under
     [prog.link_lock], like the [linked] flags) *)
  mutable t1_plain : fexec;
  mutable t1_spec : fexec;
  mutable t2_plain : fexec;
  mutable t2_spec : fexec;
  mutable t3_plain : fexec;
      (* register-threaded tier; plain variant only — the spec variant
         caps at tier 2 (see the header comment) *)
  mutable t1_plain_linked : bool;
  mutable t1_spec_linked : bool;
  mutable t2_plain_linked : bool;
  mutable t2_spec_linked : bool;
  mutable t3_plain_linked : bool;
}

(* Program-wide lowering statistics.  Lowering is lazy and triggered by
   whichever engine gets there first, so these are scheduling-dependent —
   they are reported only under the "sched" trace category and the
   [prog_stats] accessor, never mixed into deterministic counters. *)
type pstats = {
  fused_seams : int Atomic.t;  (* call seams lowered to fused closures *)
  fused_promoted : int Atomic.t;  (* of those, promoted at runtime by heat *)
  t3_traces : int Atomic.t;  (* traces lowered to int-coded streams *)
  t3_coded : int Atomic.t;  (* simple insts encoded directly in streams *)
  t3_insts : int Atomic.t;  (* simple insts in tier-3 traces, total *)
}

type prog = {
  c2by_id : cfunc2 array;
  mem_len : int;  (* length of every engine's global memory, for baked bounds *)
  link_lock : Mutex.t;  (* serializes per-function lazy lowering *)
  tiered : bool;
      (* whether [fexec_*] is the counting dispatcher (tiered) or the
         tier-1 body itself (baseline) *)
  callfuse : int;
      (* call-seam fusion threshold baked into this program's lowering
         (part of the compile-cache key); 0 disables fusion entirely *)
  pstats : pstats;
}

let prog_stats (p : prog) : (string * int) list =
  [
    ("call-fused-seams", Atomic.get p.pstats.fused_seams);
    ("callfuse-promotions", Atomic.get p.pstats.fused_promoted);
    ("tier3-traces", Atomic.get p.pstats.t3_traces);
    ("tier3-coded-insts", Atomic.get p.pstats.t3_coded);
    ("tier3-total-insts", Atomic.get p.pstats.t3_insts);
  ]

let unlinked : fexec = fun _ -> assert false

(* Shared empty taint file threaded through the plain variant; never read
   or written there. *)
let no_taint : int option array = [||]

(* --------------------- entry-live zero sets -------------------- *)

(* Register frames come from a per-depth pool, so a fresh activation
   sees whatever its predecessor left.  The interpreter zeroes the whole
   file ([frame]) and [None]s the whole taint file; but the only slots
   whose initial value is observable are those some path from the entry
   block may READ before writing — everything else is dead on entry and
   its stale contents can never flow into cycles, memory, traces or
   taint.  [zeroset_of] computes that set once per function at compile
   time (a standard backward may-liveness fixpoint over the compiled
   blocks, bit-packed 32 registers per word), and the call paths zero
   exactly it.  The big straight-line kernel functions have register
   files two orders of magnitude larger than their entry-live set, which
   makes this the difference between ~800 stores and ~4 per activation
   of the hottest callees. *)
let zeroset_of (cf : cfunc) : int array =
  let module RS = Set.Make (Int) in
  let blocks = cf.cblocks in
  let nblocks = Array.length blocks in
  (* Per-block summaries, one pass over each instruction total: [gen] is
     the registers read before any in-block write (sparse — live sets
     stay tiny even in functions with huge register files, which is what
     keeps this affordable on aggressively inlined images), [def] the
     registers the block writes, as a sorted array.  [written] marks the
     current block's writes and is cleared after each block: one scratch
     byte per register for the whole function instead of a hash table
     per block, most of which the minor GC used to promote on big
     images.  A register outside [0, nregs) (hand-built IR only) is
     never marked: it stays live, and the result drops it below. *)
  let nregs = cf.f.nregs in
  let written = Bytes.make (max nregs 0) '\000' in
  let marked r = r >= 0 && r < nregs && Bytes.get written r <> '\000' in
  let gens = Array.make nblocks RS.empty in
  let defs = Array.make nblocks [||] in
  for l = 0 to nblocks - 1 do
    let b = blocks.(l) in
    let def = ref [] in
    let gen = ref RS.empty in
    let use r = if not (marked r) then gen := RS.add r !gen in
    let use_op = function Imm _ -> () | Reg r -> use r in
    let use_expr = function
      | Const _ -> ()
      | Move o | Load o -> use_op o
      | Binop (_, a, b) ->
        use_op a;
        use_op b
    in
    let write r =
      if r >= 0 && r < nregs && not (marked r) then begin
        Bytes.set written r '\001';
        def := r :: !def
      end
    in
    Array.iter
      (fun i ->
        match i with
        | CAssign (d, e) ->
          use_expr e;
          write d
        | CStore (a, v) ->
          use_op a;
          use_op v
        | CObserve v -> use_op v
        | CCall { dst; args; _ } ->
          Array.iter use_op args;
          (match dst with Some d -> write d | None -> ())
        | CIcall { dst; fptr; args; _ } ->
          use_op fptr;
          Array.iter use_op args;
          (match dst with Some d -> write d | None -> ())
        | CAsm_icall { fptr; _ } -> use_op fptr)
      b.cinsts;
    (match b.cterm with
    | Jmp _ | Ret None -> ()
    | Br (c, _, _) -> use_op c
    | Switch { scrutinee; _ } -> use_op scrutinee
    | Ret (Some v) -> use_op v);
    List.iter (fun r -> Bytes.set written r '\000') !def;
    let def = Array.of_list !def in
    Array.sort Int.compare def;
    gens.(l) <- !gen;
    defs.(l) <- def
  done;
  let defined def r =
    let rec go lo hi =
      lo < hi
      &&
      let mid = (lo + hi) lsr 1 in
      let v = def.(mid) in
      v = r || if v < r then go (mid + 1) hi else go lo mid
    in
    go 0 (Array.length def)
  in
  (* Worklist fixpoint over the block summaries:
     live_in = gen ∪ (live_out − def).  A block is revisited only when
     the live-in of a successor changed. *)
  let live_in = Array.make nblocks RS.empty in
  let preds = Array.make nblocks [] in
  for l = 0 to nblocks - 1 do
    List.iter
      (fun s -> preds.(s) <- l :: preds.(s))
      (Func.successors blocks.(l).cterm)
  done;
  let queued = Array.make nblocks true in
  let work = ref [] in
  for l = 0 to nblocks - 1 do
    work := l :: !work
  done;
  let continue = ref true in
  while !continue do
    match !work with
    | [] -> continue := false
    | l :: rest ->
      work := rest;
      queued.(l) <- false;
      let out =
        List.fold_left
          (fun acc s -> RS.union acc live_in.(s))
          RS.empty
          (Func.successors blocks.(l).cterm)
      in
      let def = defs.(l) in
      let inn = RS.union gens.(l) (RS.filter (fun r -> not (defined def r)) out) in
      if not (RS.equal inn live_in.(l)) then begin
        live_in.(l) <- inn;
        List.iter
          (fun p ->
            if not queued.(p) then begin
              queued.(p) <- true;
              work := p :: !work
            end)
          preds.(l)
      end
  done;
  (* A register outside [0, nregs) can only come from hand-built IR
     that [func_valid] rejects (such a function raises on entry); the
     call paths zero this set into a frame only [frame_len] long. *)
  Array.of_list
    (List.filter (fun r -> r >= 0 && r < nregs) (RS.elements live_in.(cf.f.entry)))

(* Zero the zeroset slots at index >= [n] (the written argument prefix)
   of a pooled frame. *)
let[@inline] zero_tail (zs : int array) n (fr : int array) =
  for i = 0 to Array.length zs - 1 do
    let r = Array.unsafe_get zs i in
    if r >= n then Array.unsafe_set fr r 0
  done

(* ------------------------- operands ---------------------------- *)

(* The specialized bodies below use unchecked array accesses: every
   static register index is validated once per function at
   closure-construction time ([func_valid] in [make_prog] — Builder and
   Validate both enforce the same bounds, so real programs always pass),
   and every pooled frame/taint file an activation runs in is at least
   its function's [frame_len] >= [nregs] long (the frame sizing
   invariant in [Machine]).  Global-memory accesses keep
   their explicit bounds check against the baked [mem_len] (the fault
   path is observable semantics) and go unchecked only after it.  A
   function with an out-of-range static index or block label lowers to a
   closure that raises [Runtime_error] on entry instead — hand-built IR
   that [Validate] would reject, so parity is not pinned there. *)

let cop : operand -> int array -> int = function
  | Imm i -> fun _ -> i
  | Reg r -> fun regs -> Array.unsafe_get regs r

(* Static index validation backing the unchecked accesses above: all
   register operands within [0, nregs), all successor labels within
   [0, nblocks). *)
let func_valid (cf : cfunc) : bool =
  let nregs = cf.f.nregs in
  let nblocks = Array.length cf.cblocks in
  let ok = ref true in
  let reg r = if r < 0 || r >= nregs then ok := false in
  let op = function Imm _ -> () | Reg r -> reg r in
  let expr = function
    | Const _ -> ()
    | Move o | Load o -> op o
    | Binop (_, a, b) ->
      op a;
      op b
  in
  let label l = if l < 0 || l >= nblocks then ok := false in
  Array.iter
    (fun (b : Machine.cblock) ->
      Array.iter
        (fun i ->
          match i with
          | CAssign (d, e) ->
            reg d;
            expr e
          | CStore (a, v) ->
            op a;
            op v
          | CObserve v -> op v
          | CCall { dst; args; _ } ->
            Array.iter op args;
            (match dst with Some d -> reg d | None -> ())
          | CIcall { dst; fptr; args; _ } ->
            op fptr;
            Array.iter op args;
            (match dst with Some d -> reg d | None -> ())
          | CAsm_icall { fptr; _ } -> op fptr)
        b.cinsts;
      match b.cterm with
      | Jmp l -> label l
      | Br (c, l1, l2) ->
        op c;
        label l1;
        label l2
      | Switch { scrutinee; cases; default; _ } ->
        op scrutinee;
        Array.iter (fun (_, l) -> label l) cases;
        label default
      | Ret None -> ()
      | Ret (Some v) -> op v)
    cf.cblocks;
  label cf.f.entry;
  !ok

(* ---------------------- fused segments ------------------------- *)

(* A segment batches the accounting of a run of [k] items — simple
   instructions plus, in the fused tier, [SJump] seam markers standing
   for an unconditional fallthrough (the predecessor block's terminator
   fuel step and jump cost): the header bumps steps by [k], retired
   instructions by the number of real instructions, and cycles by the
   segment's static cost sum, then runs the instruction bodies (seams
   have no body at all on the fast path).  When a body must raise
   mid-segment (an out-of-bounds load or store), it first rewinds the
   not-yet-earned remainder — [dc] cycles, [dns] steps and [dni]
   retired instructions, all baked at compile time and distinct because
   seams step without retiring — so the observable state at the raise
   point is exactly the interpreter's. *)
type sitem =
  | SInst of Machine.cinst
  | SJump
      (* a fused unconditional fallthrough seam: one fuel step plus
         [Cost.jmp], batched mid-segment *)

(* Link-time lowering statistics, reported as trace counters when the
   fused tier of a function is linked. *)
type fuse_stats = {
  mutable sb_count : int;  (* >=2-block chains lowered as one superblock *)
  mutable sb_blocks : int;  (* blocks covered by those superblocks *)
  mutable seg_fused : int;  (* instructions inside batched (>=2-item) segments *)
  mutable seg_total : int;  (* simple instructions lowered into segments *)
}

let[@inline] seg_unwind t ~dc ~dns ~dni =
  t.cyc <- t.cyc - dc;
  t.steps <- t.steps - dns;
  t.ctrs.insts <- t.ctrs.insts - dni

let oob_load fname addr =
  Runtime_error (Printf.sprintf "load out of bounds: %d in %s" addr fname)

let oob_store fname addr =
  Runtime_error (Printf.sprintf "store out of bounds: %d in %s" addr fname)

let inst_cost = function
  | CAssign (_, e) -> Cost.assign_cost e
  | CStore _ -> Cost.store
  | CObserve _ -> Cost.observe
  | CCall _ | CIcall _ | CAsm_icall _ -> assert false

let sitem_cost = function
  | SInst i -> inst_cost i
  | SJump -> Cost.jmp

(* Batch accounting of an item run, shared by segment compilation and
   the tier-3 encoder: per-item static costs, their sum, the retired
   instruction count, and per-position suffix deltas — cycles, steps and
   retired instructions strictly after position [j], i.e. what a fault at
   [j] must rewind from the pre-charged batch (kept separate because
   seams step without retiring). *)
let seg_suffixes (items : sitem array) =
  let k = Array.length items in
  let costs = Array.map sitem_cost items in
  let total = Array.fold_left ( + ) 0 costs in
  let ni =
    Array.fold_left
      (fun acc it -> match it with SInst _ -> acc + 1 | SJump -> acc)
      0 items
  in
  let dcs = Array.make k 0 and dnss = Array.make k 0 and dnis = Array.make k 0 in
  let rc = ref 0 and rs = ref 0 and ri = ref 0 in
  for j = k - 1 downto 0 do
    dcs.(j) <- !rc;
    dnss.(j) <- !rs;
    dnis.(j) <- !ri;
    rc := !rc + costs.(j);
    incr rs;
    (match items.(j) with SInst _ -> incr ri | SJump -> ())
  done;
  (costs, total, ni, dcs, dnss, dnis)

(* Assign of a binop, fully specialized on the operator and both operand
   kinds: the closure body is the register reads and the arithmetic,
   nothing else.  Immediate pairs constant-fold at compile time. *)
let pbinop r op a b : pbody =
  (* spelled out with the array primitives directly in every arm: the
     compiler has no flambda, so a local [get]/[set] helper captured in
     the returned closure would cost a real call per register access in
     the hottest bodies the backend emits *)
  match (a, b) with
  | Reg x, Reg y -> (
    match op with
    | Add ->
      fun t -> let regs = t.cur_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs x + Array.unsafe_get regs y)
    | Sub ->
      fun t -> let regs = t.cur_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs x - Array.unsafe_get regs y)
    | Mul ->
      fun t -> let regs = t.cur_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs x * Array.unsafe_get regs y)
    | Xor ->
      fun t -> let regs = t.cur_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs x lxor Array.unsafe_get regs y)
    | And ->
      fun t -> let regs = t.cur_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs x land Array.unsafe_get regs y)
    | Or ->
      fun t -> let regs = t.cur_regs in
        Array.unsafe_set regs r (Array.unsafe_get regs x lor Array.unsafe_get regs y)
    | Shl ->
      fun t -> let regs = t.cur_regs in
        Array.unsafe_set regs r
          (Array.unsafe_get regs x lsl (Array.unsafe_get regs y land 31))
    | Shr ->
      fun t -> let regs = t.cur_regs in
        Array.unsafe_set regs r
          (Array.unsafe_get regs x lsr (Array.unsafe_get regs y land 31))
    | Lt ->
      fun t -> let regs = t.cur_regs in
        Array.unsafe_set regs r
          (if Array.unsafe_get regs x < Array.unsafe_get regs y then 1 else 0)
    | Eq ->
      fun t -> let regs = t.cur_regs in
        Array.unsafe_set regs r
          (if Array.unsafe_get regs x = Array.unsafe_get regs y then 1 else 0))
  | Reg x, Imm y -> (
    match op with
    | Add -> fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (Array.unsafe_get regs x + y)
    | Sub -> fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (Array.unsafe_get regs x - y)
    | Mul -> fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (Array.unsafe_get regs x * y)
    | Xor -> fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (Array.unsafe_get regs x lxor y)
    | And -> fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (Array.unsafe_get regs x land y)
    | Or -> fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (Array.unsafe_get regs x lor y)
    | Shl ->
      let s = y land 31 in
      fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (Array.unsafe_get regs x lsl s)
    | Shr ->
      let s = y land 31 in
      fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (Array.unsafe_get regs x lsr s)
    | Lt ->
      fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (if Array.unsafe_get regs x < y then 1 else 0)
    | Eq ->
      fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (if Array.unsafe_get regs x = y then 1 else 0))
  | Imm x, Reg y -> (
    match op with
    | Add -> fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (x + Array.unsafe_get regs y)
    | Sub -> fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (x - Array.unsafe_get regs y)
    | Mul -> fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (x * Array.unsafe_get regs y)
    | Xor -> fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (x lxor Array.unsafe_get regs y)
    | And -> fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (x land Array.unsafe_get regs y)
    | Or -> fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (x lor Array.unsafe_get regs y)
    | Shl ->
      fun t -> let regs = t.cur_regs in
        Array.unsafe_set regs r (x lsl (Array.unsafe_get regs y land 31))
    | Shr ->
      fun t -> let regs = t.cur_regs in
        Array.unsafe_set regs r (x lsr (Array.unsafe_get regs y land 31))
    | Lt ->
      fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (if x < Array.unsafe_get regs y then 1 else 0)
    | Eq ->
      fun t -> let regs = t.cur_regs in Array.unsafe_set regs r (if x = Array.unsafe_get regs y then 1 else 0))
  | Imm x, Imm y ->
    let v = eval_binop op x y in
    fun t -> let regs = t.cur_regs in Array.unsafe_set regs r v

let passign ~mem_len fname ~dc ~dns ~dni r e : pbody =
  match e with
  | Const i | Move (Imm i) -> fun t -> Array.unsafe_set t.cur_regs r i
  | Move (Reg s) ->
    fun t ->
      let regs = t.cur_regs in
      Array.unsafe_set regs r (Array.unsafe_get regs s)
  | Binop (op, a, b) -> pbinop r op a b
  | Load (Imm i) ->
    if i >= 0 && i < mem_len then
      fun t -> Array.unsafe_set t.cur_regs r (Array.unsafe_get t.mem i)
    else
      fun t ->
        seg_unwind t ~dc ~dns ~dni;
        raise (oob_load fname i)
  | Load (Reg ar) ->
    fun t ->
      let regs = t.cur_regs in
      let addr = Array.unsafe_get regs ar in
      if addr < 0 || addr >= mem_len then begin
        seg_unwind t ~dc ~dns ~dni;
        raise (oob_load fname addr)
      end
      else Array.unsafe_set regs r (Array.unsafe_get t.mem addr)

(* Spec-variant assign: the taint write happens before the value write —
   and, as in the interpreter, before a faulting load raises. *)
let tassign ~mem_len fname ~dc ~dns ~dni r e : tbody =
  match e with
  | Const i | Move (Imm i) ->
    fun t ->
      Array.unsafe_set t.cur_taint r None;
      Array.unsafe_set t.cur_regs r i
  | Move (Reg s) ->
    fun t ->
      let taint = t.cur_taint in
      Array.unsafe_set taint r (Array.unsafe_get taint s);
      let regs = t.cur_regs in
      Array.unsafe_set regs r (Array.unsafe_get regs s)
  | Binop (op, a, b) ->
    let body = pbinop r op a b in
    fun t ->
      Array.unsafe_set t.cur_taint r None;
      body t
  | Load (Imm i) ->
    if i >= 0 && i < mem_len then
      fun t ->
        (Array.unsafe_set t.cur_taint r
           (match t.cfg.speculation with
           | None -> None
           | Some s -> Speculation.injected_load s ~addr:i));
        Array.unsafe_set t.cur_regs r (Array.unsafe_get t.mem i)
    else
      fun t ->
        (Array.unsafe_set t.cur_taint r
           (match t.cfg.speculation with
           | None -> None
           | Some s -> Speculation.injected_load s ~addr:i));
        seg_unwind t ~dc ~dns ~dni;
        raise (oob_load fname i)
  | Load (Reg ar) ->
    fun t ->
      let regs = t.cur_regs in
      let addr = Array.unsafe_get regs ar in
      (Array.unsafe_set t.cur_taint r
         (match t.cfg.speculation with
         | None -> None
         | Some s -> Speculation.injected_load s ~addr));
      if addr < 0 || addr >= mem_len then begin
        seg_unwind t ~dc ~dns ~dni;
        raise (oob_load fname addr)
      end
      else Array.unsafe_set regs r (Array.unsafe_get t.mem addr)

let pstore ~mem_len fname ~dc ~dns ~dni a v : pbody =
  match (a, v) with
  | Imm i, Imm vv ->
    if i >= 0 && i < mem_len then fun t -> Array.unsafe_set t.mem i vv
    else
      fun t ->
        seg_unwind t ~dc ~dns ~dni;
        raise (oob_store fname i)
  | Imm i, Reg vr ->
    if i >= 0 && i < mem_len then
      fun t -> Array.unsafe_set t.mem i (Array.unsafe_get t.cur_regs vr)
    else
      fun t ->
        seg_unwind t ~dc ~dns ~dni;
        raise (oob_store fname i)
  | Reg ar, Imm vv ->
    fun t ->
      let addr = Array.unsafe_get t.cur_regs ar in
      if addr < 0 || addr >= mem_len then begin
        seg_unwind t ~dc ~dns ~dni;
        raise (oob_store fname addr)
      end
      else Array.unsafe_set t.mem addr vv
  | Reg ar, Reg vr ->
    fun t ->
      let regs = t.cur_regs in
      let addr = Array.unsafe_get regs ar in
      if addr < 0 || addr >= mem_len then begin
        seg_unwind t ~dc ~dns ~dni;
        raise (oob_store fname addr)
      end
      else Array.unsafe_set t.mem addr (Array.unsafe_get regs vr)

let pobserve v : pbody =
  match v with
  | Imm i -> fun t -> if t.cfg.record_trace then t.trace_rev <- i :: t.trace_rev
  | Reg r ->
    fun t ->
      if t.cfg.record_trace then
        t.trace_rev <- Array.unsafe_get t.cur_regs r :: t.trace_rev

let pbody_of ~mem_len fname ~dc ~dns ~dni (i : Machine.cinst) : pbody =
  match i with
  | CAssign (r, e) -> passign ~mem_len fname ~dc ~dns ~dni r e
  | CStore (a, v) -> pstore ~mem_len fname ~dc ~dns ~dni a v
  | CObserve v -> pobserve v
  | CCall _ | CIcall _ | CAsm_icall _ -> assert false

let tbody_of ~mem_len fname ~dc ~dns ~dni (i : Machine.cinst) : tbody =
  match i with
  | CAssign (r, e) -> tassign ~mem_len fname ~dc ~dns ~dni r e
  | CStore (a, v) -> pstore ~mem_len fname ~dc ~dns ~dni a v
  | CObserve v -> pobserve v
  | CCall _ | CIcall _ | CAsm_icall _ -> assert false

(* Publication of the running frame for the arity-1 bodies above.  The
   pointer compare skips the [caml_modify] write barrier in the common
   case — consecutive segments of one activation, or a pooled frame
   reused at the same depth, already have the right array published. *)
let[@inline] publish_regs t regs = if t.cur_regs != regs then t.cur_regs <- regs

let[@inline] publish_taint t taint = if t.cur_taint != taint then t.cur_taint <- taint

(* Compile a maximal run of items into one fused closure.  The fuel
   guard [steps + k > fuel] holds exactly when per-item bumping would
   raise somewhere inside the segment, in which case the slow path
   replays the segment with the interpreter's per-item accounting and
   dies (or faults) at precisely the right instruction — it is always
   exact, only slower, so the guard can be conservative.  On the fast
   path, [SJump] seams have no body at all: their step and cost are
   folded into the batch header, so a fused fallthrough is free. *)
let compile_segment ~spec ~mem_len ?stats fname (items : sitem array) : iexec =
  let k = Array.length items in
  let costs, total, ni, dcs, dnss, dnis = seg_suffixes items in
  (match stats with
  | Some s ->
    s.seg_total <- s.seg_total + ni;
    if k >= 2 then s.seg_fused <- s.seg_fused + ni
  | None -> ());
  (* The dispatch shapes below are deliberately arity-specialized: the
     per-item closure call is the single biggest runtime cost the backend
     emits, so single-item segments skip the batch header entirely, small
     segments bind their bodies as direct captures (no array indexing at
     all), and the generic loops index with the unsafe primitives (the
     bounds are fixed at lowering time). *)
  if spec then begin
    match items with
    | [| SInst i |] ->
      let body = tbody_of ~mem_len fname ~dc:0 ~dns:0 ~dni:0 i and c = costs.(0) in
      fun t ->
        bump_inst t;
        charge t c;
        body t
    | [| SJump |] ->
      fun t ->
        step_fuel t;
        charge t Cost.jmp
    | _ ->
      let slow =
        Array.mapi
          (fun j it ->
            match it with
            | SInst i ->
              let body = tbody_of ~mem_len fname ~dc:0 ~dns:0 ~dni:0 i
              and c = costs.(j) in
              fun t ->
                bump_inst t;
                charge t c;
                body t
            | SJump ->
              fun t ->
                step_fuel t;
                charge t Cost.jmp)
          items
      in
      let run_slow t =
        for j = 0 to k - 1 do
          (Array.unsafe_get slow j) t
        done
      in
      let bodies =
        Array.of_list
          (List.filter_map
             (fun j ->
               match items.(j) with
               | SInst i ->
                 Some (tbody_of ~mem_len fname ~dc:dcs.(j) ~dns:dnss.(j) ~dni:dnis.(j) i)
               | SJump -> None)
             (List.init k (fun j -> j)))
      in
      (match bodies with
      | [| b0 |] ->
        fun t ->
          if t.steps + k > t.fuel_cap then run_slow t
          else begin
            t.steps <- t.steps + k;
            t.ctrs.insts <- t.ctrs.insts + ni;
            t.cyc <- t.cyc + total;
            b0 t
          end
      | [| b0; b1 |] ->
        fun t ->
          if t.steps + k > t.fuel_cap then run_slow t
          else begin
            t.steps <- t.steps + k;
            t.ctrs.insts <- t.ctrs.insts + ni;
            t.cyc <- t.cyc + total;
            b0 t;
            b1 t
          end
      | [| b0; b1; b2 |] ->
        fun t ->
          if t.steps + k > t.fuel_cap then run_slow t
          else begin
            t.steps <- t.steps + k;
            t.ctrs.insts <- t.ctrs.insts + ni;
            t.cyc <- t.cyc + total;
            b0 t;
            b1 t;
            b2 t
          end
      | [| b0; b1; b2; b3 |] ->
        fun t ->
          if t.steps + k > t.fuel_cap then run_slow t
          else begin
            t.steps <- t.steps + k;
            t.ctrs.insts <- t.ctrs.insts + ni;
            t.cyc <- t.cyc + total;
            b0 t;
            b1 t;
            b2 t;
            b3 t
          end
      | _ ->
        let nb = Array.length bodies in
        fun t ->
          if t.steps + k > t.fuel_cap then run_slow t
          else begin
            t.steps <- t.steps + k;
            t.ctrs.insts <- t.ctrs.insts + ni;
            t.cyc <- t.cyc + total;
            for j = 0 to nb - 1 do
              (Array.unsafe_get bodies j) t
            done
          end)
  end
  else begin
    match items with
    | [| SInst i |] ->
      let body = pbody_of ~mem_len fname ~dc:0 ~dns:0 ~dni:0 i and c = costs.(0) in
      fun t ->
        bump_inst t;
        charge t c;
        body t
    | [| SJump |] ->
      fun t ->
        step_fuel t;
        charge t Cost.jmp
    | _ ->
      let slow =
        Array.mapi
          (fun j it ->
            match it with
            | SInst i ->
              let body = pbody_of ~mem_len fname ~dc:0 ~dns:0 ~dni:0 i
              and c = costs.(j) in
              fun t ->
                bump_inst t;
                charge t c;
                body t
            | SJump ->
              fun t ->
                step_fuel t;
                charge t Cost.jmp)
          items
      in
      let run_slow t =
        for j = 0 to k - 1 do
          (Array.unsafe_get slow j) t
        done
      in
      let bodies =
        Array.of_list
          (List.filter_map
             (fun j ->
               match items.(j) with
               | SInst i ->
                 Some (pbody_of ~mem_len fname ~dc:dcs.(j) ~dns:dnss.(j) ~dni:dnis.(j) i)
               | SJump -> None)
             (List.init k (fun j -> j)))
      in
      (match bodies with
      | [| b0 |] ->
        fun t ->
          if t.steps + k > t.fuel_cap then run_slow t
          else begin
            t.steps <- t.steps + k;
            t.ctrs.insts <- t.ctrs.insts + ni;
            t.cyc <- t.cyc + total;
            b0 t
          end
      | [| b0; b1 |] ->
        fun t ->
          if t.steps + k > t.fuel_cap then run_slow t
          else begin
            t.steps <- t.steps + k;
            t.ctrs.insts <- t.ctrs.insts + ni;
            t.cyc <- t.cyc + total;
            b0 t;
            b1 t
          end
      | [| b0; b1; b2 |] ->
        fun t ->
          if t.steps + k > t.fuel_cap then run_slow t
          else begin
            t.steps <- t.steps + k;
            t.ctrs.insts <- t.ctrs.insts + ni;
            t.cyc <- t.cyc + total;
            b0 t;
            b1 t;
            b2 t
          end
      | [| b0; b1; b2; b3 |] ->
        fun t ->
          if t.steps + k > t.fuel_cap then run_slow t
          else begin
            t.steps <- t.steps + k;
            t.ctrs.insts <- t.ctrs.insts + ni;
            t.cyc <- t.cyc + total;
            b0 t;
            b1 t;
            b2 t;
            b3 t
          end
      | _ ->
        let nb = Array.length bodies in
        fun t ->
          if t.steps + k > t.fuel_cap then run_slow t
          else begin
            t.steps <- t.steps + k;
            t.ctrs.insts <- t.ctrs.insts + ni;
            t.cyc <- t.cyc + total;
            for j = 0 to nb - 1 do
              (Array.unsafe_get bodies j) t
            done
          end)
  end

(* --------------------------- calls ----------------------------- *)

(* Result write-back destination as a sentinel int (-1 = no destination):
   the call closures inline the store behind one statically-predictable
   compare instead of bouncing a 3-argument closure through
   [caml_apply3] on every return. *)
let dst_reg = function None -> -1 | Some r -> r

(* Argument evaluators plus the entry-live zero tail for a direct call
   with a static argument list (operand evaluation is pure, so
   truncating past the parameter count drops nothing observable).  The
   call closures loop over the evaluators inline — each one is an
   arity-1 application, a direct indirect call, where a two-array
   writer closure would route every seam through [caml_apply2].  The
   static argument count lets the entry-live zeroing be filtered at
   compile time: only zeroset slots past the written prefix survive
   into [zs_tail]. *)
let direct_call_frame (callee2 : cfunc2) (args : operand array) :
    (int array -> int) array * int array =
  let callee_cf = callee2.c2 in
  let argv = Array.map cop args in
  let n = min callee_cf.f.params (Array.length argv) in
  let zs_tail =
    Array.of_list (List.filter (fun r -> r >= n) (Array.to_list callee2.zeroset))
  in
  let argv = if Array.length argv > n then Array.sub argv 0 n else argv in
  (argv, zs_tail)

let ccall ~spec c2by_id (caller : cfunc) ~dst ~callee_name ~callee_id
    ~(args : operand array) ~site : iexec =
  let caller_id = caller.id and caller_name = caller.f.fname in
  if callee_id < 0 then
    (* Unknown callee: counters, cycles and the edge event still happen
       before the failure, exactly like the interpreter's [lookup]. *)
    fun t ->
      bump_inst t;
      t.ctrs.calls <- t.ctrs.calls + 1;
      charge t (Cost.direct_call + t.cfg.extra_call_cycles);
      emit_edge t site caller_name callee_name Edge_direct;
      raise (Runtime_error ("call to unknown function @" ^ callee_name))
  else begin
    let callee2 = c2by_id.(callee_id) in
    let callee_cf = callee2.c2 in
    let argv, zs_tail = direct_call_frame callee2 args in
    let nargs = Array.length argv in
    let flen = callee_cf.frame_len in
    let dst_r = dst_reg dst in
    if spec then
      (fun t ->
        bump_inst t;
        t.ctrs.calls <- t.ctrs.calls + 1;
        charge t (Cost.direct_call + t.cfg.extra_call_cycles);
        emit_edge t site caller_name callee_name Edge_direct;
        enter_code t callee_cf;
        Rsb.push t.trsb caller_id;
        (* Save the caller's activation, install the callee's, restore on
           return.  The frame pools hand back distinct arrays per depth,
           so the install stores are never redundant. *)
        let regs = t.cur_regs and taint = t.cur_taint in
        let depth = t.cur_depth and rt = t.cur_ret_to in
        (* Write the argument prefix, zero only the entry-live tail: the
           prefix is about to be overwritten anyway, and registers dead
           on entry never surface their stale contents. *)
        let callee_regs = raw_frame t ~depth:(depth + 1) ~len:flen in
        for i = 0 to nargs - 1 do
          Array.unsafe_set callee_regs i ((Array.unsafe_get argv i) regs)
        done;
        zero_tail zs_tail 0 callee_regs;
        t.cur_regs <- callee_regs;
        t.cur_depth <- depth + 1;
        t.cur_ret_to <- caller_id;
        let v = callee2.fexec_spec t in
        t.cur_regs <- regs;
        t.cur_taint <- taint;
        t.cur_depth <- depth;
        t.cur_ret_to <- rt;
        if dst_r >= 0 then begin
          (match v with
          | Some x -> Array.unsafe_set regs dst_r x
          | None -> Array.unsafe_set regs dst_r 0);
          Array.unsafe_set taint dst_r None
        end)
    else
      fun t ->
        bump_inst t;
        t.ctrs.calls <- t.ctrs.calls + 1;
        charge t (Cost.direct_call + t.cfg.extra_call_cycles);
        emit_edge t site caller_name callee_name Edge_direct;
        enter_code t callee_cf;
        Rsb.push t.trsb caller_id;
        let regs = t.cur_regs in
        let depth = t.cur_depth and rt = t.cur_ret_to in
        let callee_regs = raw_frame t ~depth:(depth + 1) ~len:flen in
        for i = 0 to nargs - 1 do
          Array.unsafe_set callee_regs i ((Array.unsafe_get argv i) regs)
        done;
        zero_tail zs_tail 0 callee_regs;
        t.cur_regs <- callee_regs;
        t.cur_depth <- depth + 1;
        t.cur_ret_to <- caller_id;
        let v = callee2.fexec_plain t in
        t.cur_regs <- regs;
        t.cur_depth <- depth;
        t.cur_ret_to <- rt;
        if dst_r >= 0 then
          match v with
          | Some x -> Array.unsafe_set regs dst_r x
          | None -> Array.unsafe_set regs dst_r 0
  end

let cicall ~spec ~asm c2by_id (caller : cfunc) ~dst ~fptr ~(args : operand array) ~site
    ~slot : iexec =
  let caller_id = caller.id and caller_name = caller.f.fname in
  let ofp = cop fptr in
  let argv = Array.map cop args in
  let nargs = Array.length argv in
  let kind = if asm then Edge_asm else Edge_indirect in
  let ftaint : int option array -> int option =
    if spec && not asm then
      match fptr with
      | Reg r -> fun taint -> Array.unsafe_get taint r
      | Imm _ -> fun _ -> None
    else fun _ -> None
  in
  let dst_r = dst_reg dst in
  fun t ->
    bump_inst t;
    t.ctrs.icalls <- t.ctrs.icalls + 1;
    charge t t.cfg.extra_icall_cycles;
    let regs = t.cur_regs and taint = t.cur_taint in
    let depth = t.cur_depth and rt = t.cur_ret_to in
    let v = ofp regs in
    let target_id = icall_resolve t v in
    let target_name = t.fptr_table.(v) in
    let fptr_taint = ftaint taint in
    (match t.cfg.fwd_override with
    | Some hook when not asm -> charge t (hook ~site ~target:target_name)
    | Some _ | None ->
      let protection = if asm then Protection.F_none else t.fwd_prots.(slot) in
      indirect_transfer t ~site ~target:target_id ~fptr_taint ~protection);
    emit_edge t site caller_name target_name kind;
    let callee2 = c2by_id.(target_id) in
    let callee_cf = callee2.c2 in
    enter_code t callee_cf;
    Rsb.push t.trsb caller_id;
    let callee_regs = raw_frame t ~depth:(depth + 1) ~len:callee_cf.frame_len in
    (* integer min by hand: the polymorphic version costs a C call per
       indirect transfer *)
    let n = if callee_cf.f.params < nargs then callee_cf.f.params else nargs in
    for i = 0 to n - 1 do
      Array.unsafe_set callee_regs i ((Array.unsafe_get argv i) regs)
    done;
    zero_tail callee2.zeroset n callee_regs;
    t.cur_regs <- callee_regs;
    t.cur_depth <- depth + 1;
    t.cur_ret_to <- caller_id;
    let r = if spec then callee2.fexec_spec t else callee2.fexec_plain t in
    t.cur_regs <- regs;
    if spec then t.cur_taint <- taint;
    t.cur_depth <- depth;
    t.cur_ret_to <- rt;
    if dst_r >= 0 then begin
      (match r with
      | Some x -> Array.unsafe_set regs dst_r x
      | None -> Array.unsafe_set regs dst_r 0);
      if spec then Array.unsafe_set taint dst_r None
    end

let ccomplex ~spec c2by_id (caller : cfunc) (i : Machine.cinst) : iexec =
  match i with
  | CCall { dst; callee; callee_id; args; site } ->
    ccall ~spec c2by_id caller ~dst ~callee_name:callee ~callee_id ~args ~site
  | CIcall { dst; fptr; args; site; slot } ->
    cicall ~spec ~asm:false c2by_id caller ~dst ~fptr ~args ~site ~slot
  | CAsm_icall { fptr; site } ->
    cicall ~spec ~asm:true c2by_id caller ~dst:None ~fptr ~args:[||] ~site ~slot:(-1)
  | CAssign _ | CStore _ | CObserve _ -> assert false

(* ----------------------- chain scanning ------------------------ *)

(* Flatten a chain of blocks into an alternating sequence of fused
   segments and individual complex (call) instructions: each non-final
   block contributes an [SJump] seam item for its unconditional
   terminator, and only the FINAL block's terminator survives (returned
   alongside its label).  Shared by the closure lowerings (tier 1/2),
   the tier-3 encoder and call-seam body flattening. *)
let scan_chain (chain : (int * Machine.cblock) list) :
    [ `Seg of sitem array | `Cx of Machine.cinst ] list * int * terminator =
  let rev_chunks = ref [] and pending = ref [] in
  let flush () =
    match !pending with
    | [] -> ()
    | l ->
      rev_chunks := `Seg (Array.of_list (List.rev l)) :: !rev_chunks;
      pending := []
  in
  let scan_insts (b : Machine.cblock) =
    Array.iter
      (fun i ->
        match i with
        | CAssign _ | CStore _ | CObserve _ -> pending := SInst i :: !pending
        | CCall _ | CIcall _ | CAsm_icall _ ->
          flush ();
          rev_chunks := `Cx i :: !rev_chunks)
      b.cinsts
  in
  let rec go = function
    | [] -> assert false
    | [ (label, (b : Machine.cblock)) ] ->
      scan_insts b;
      flush ();
      (label, b.cterm)
    | (_, b) :: rest ->
      scan_insts b;
      (* the seam: this block's fuel step + jump, fused into the
         surrounding segment *)
      pending := SJump :: !pending;
      go rest
  in
  let last_label, last_term = go chain in
  (List.rev !rev_chunks, last_label, last_term)

(* ---------------------- call-seam fusion ----------------------- *)

(* Upper bound on the instruction count of a fusable callee body: keeps
   the batched span (and the fuel-guard conservatism it implies) small,
   and bounds the per-site closure volume of (caller, callee)
   specialization. *)
let fuse_max_body = 48

(* A callee eligible for call-seam fusion: a valid, straight-line leaf —
   every block on the entry chain holds only simple instructions, blocks
   are linked by [Jmp] without revisits, the chain ends in [Ret], and
   the total body is bounded.  A recursive callee necessarily contains a
   call instruction, so it can never qualify; neither can anything with
   conditional or indirect control flow. *)
let fuse_plan (callee2 : cfunc2) : (int * Machine.cblock) list option =
  let cf = callee2.c2 in
  if not (func_valid cf) then None
  else begin
    let rec go acc seen l size =
      let b = cf.cblocks.(l) in
      let simple =
        Array.for_all
          (fun i ->
            match i with
            | CAssign _ | CStore _ | CObserve _ -> true
            | CCall _ | CIcall _ | CAsm_icall _ -> false)
          b.cinsts
      in
      let size = size + Array.length b.cinsts in
      if (not simple) || size > fuse_max_body then None
      else
        match b.cterm with
        | Ret _ -> Some (List.rev ((l, b) :: acc))
        | Jmp s when not (List.mem s seen) -> go ((l, b) :: acc) (s :: seen) s size
        | _ -> None
    in
    go [] [ cf.f.entry ] cf.f.entry 0
  end

(* Lower one (caller, callee) pair into a single fused closure spanning
   call + body + return: one fuel guard and one batched
   step/instruction/cycle update for the whole span, then the machine
   effects in exactly the interpreter's order — edge event, i-cache
   touch, RSB push, frame setup, entry-live zeroing, the callee's
   per-engine entry-counter bump (mirroring the tiered dispatcher the
   unfused path goes through), [enter_frame], the body items, the return
   value read, [do_ret] (which pops the RSB and charges the backward
   path), result write-back.  The batch pre-charges the call step, every
   body item and the return's fuel step; a faulting body item rewinds
   its unearned remainder (the body deltas count the return step as
   still-unearned), and a span that could exhaust fuel falls back to
   [slow] — the ordinary unfused call closure, which dies at exactly the
   interpreter's instruction. *)
let build_fused ~spec (p : prog) (caller : cfunc) ~dst ~callee_id ~site
    ~(args : operand array) ~(slow : iexec) (chain : (int * Machine.cblock) list) :
    iexec =
  let caller_id = caller.id and caller_name = caller.f.fname in
  let callee2 = p.c2by_id.(callee_id) in
  let callee_cf = callee2.c2 in
  let callee_name = callee_cf.f.fname in
  let mem_len = p.mem_len in
  let items =
    match scan_chain chain with
    | [], _, _ -> [||]
    | [ `Seg items ], _, _ -> items
    | _ -> assert false (* fuse_plan admits simple instructions only *)
  in
  let _costs, body_total, nbody_insts, dcs, dnss0, dnis = seg_suffixes items in
  let nb = Array.length items in
  (* call step + body items (insts and seams) + return step *)
  let k = nb + 2 in
  (* the call instruction itself retires, plus the body instructions *)
  let ni = 1 + nbody_insts in
  (* static cycles of the span: the call cost and every body item; the
     return's cost is charged at runtime by [do_ret] (it depends on RSB
     state and backward protection) *)
  let static_cyc = Cost.direct_call + body_total in
  (* body deltas: the pre-charged return fuel step is after every item *)
  let dnss = Array.map (fun s -> s + 1) dnss0 in
  let argv, zs_tail = direct_call_frame callee2 args in
  let nargs = Array.length argv in
  let flen = callee_cf.frame_len in
  let dst_r = dst_reg dst in
  let read_ret : int array -> int option =
    match chain with
    | [] -> assert false
    | _ -> (
      match (snd (List.nth chain (List.length chain - 1))).cterm with
      | Ret None -> fun _ -> None
      | Ret (Some (Imm i)) ->
        let v = Some i in
        fun _ -> v
      | Ret (Some (Reg r)) -> fun cregs -> Some (Array.unsafe_get cregs r)
      | Jmp _ | Br _ | Switch _ -> assert false)
  in
  if spec then begin
    let tbodies =
      Array.of_list
        (List.filter_map
           (fun j ->
             match items.(j) with
             | SInst i ->
               Some
                 (tbody_of ~mem_len callee_name ~dc:dcs.(j) ~dns:dnss.(j)
                    ~dni:dnis.(j) i)
             | SJump -> None)
           (List.init nb (fun j -> j)))
    in
    let ntb = Array.length tbodies in
    let zs = callee2.zeroset in
    let nzs = Array.length zs in
    fun t ->
      if t.steps + k > t.fuel_cap then slow t
      else begin
        t.steps <- t.steps + k;
        t.ctrs.insts <- t.ctrs.insts + ni;
        t.ctrs.calls <- t.ctrs.calls + 1;
        t.cyc <- t.cyc + static_cyc + t.cfg.extra_call_cycles;
        emit_edge t site caller_name callee_name Edge_direct;
        enter_code t callee_cf;
        Rsb.push t.trsb caller_id;
        let regs = t.cur_regs and taint = t.cur_taint in
        let depth = t.cur_depth in
        let cregs = raw_frame t ~depth:(depth + 1) ~len:flen in
        for i = 0 to nargs - 1 do
          Array.unsafe_set cregs i ((Array.unsafe_get argv i) regs)
        done;
        zero_tail zs_tail 0 cregs;
        Array.unsafe_set t.tier_counts callee_id
          (Array.unsafe_get t.tier_counts callee_id + 1);
        enter_frame t callee_cf;
        let ctaint = raw_taint_frame t ~depth:(depth + 1) ~len:flen in
        for i = 0 to nzs - 1 do
          Array.unsafe_set ctaint (Array.unsafe_get zs i) None
        done;
        t.cur_regs <- cregs;
        t.cur_taint <- ctaint;
        for j = 0 to ntb - 1 do
          (Array.unsafe_get tbodies j) t
        done;
        let v = read_ret cregs in
        do_ret t callee_cf ~ret_to:caller_id;
        t.cur_regs <- regs;
        t.cur_taint <- taint;
        if dst_r >= 0 then begin
          (match v with
          | Some x -> Array.unsafe_set regs dst_r x
          | None -> Array.unsafe_set regs dst_r 0);
          Array.unsafe_set taint dst_r None
        end
      end
  end
  else begin
    let bodies =
      Array.of_list
        (List.filter_map
           (fun j ->
             match items.(j) with
             | SInst i ->
               Some
                 (pbody_of ~mem_len callee_name ~dc:dcs.(j) ~dns:dnss.(j)
                    ~dni:dnis.(j) i)
             | SJump -> None)
           (List.init nb (fun j -> j)))
    in
    let seam t regs depth =
      t.steps <- t.steps + k;
      t.ctrs.insts <- t.ctrs.insts + ni;
      t.ctrs.calls <- t.ctrs.calls + 1;
      t.cyc <- t.cyc + static_cyc + t.cfg.extra_call_cycles;
      emit_edge t site caller_name callee_name Edge_direct;
      enter_code t callee_cf;
      Rsb.push t.trsb caller_id;
      let cregs = raw_frame t ~depth:(depth + 1) ~len:flen in
      for i = 0 to nargs - 1 do
        Array.unsafe_set cregs i ((Array.unsafe_get argv i) regs)
      done;
      zero_tail zs_tail 0 cregs;
      Array.unsafe_set t.tier_counts callee_id
        (Array.unsafe_get t.tier_counts callee_id + 1);
      enter_frame t callee_cf;
      t.cur_regs <- cregs;
      cregs
    in
    (* Arity-specialize the hottest leaf shapes: the bound body closures
       are direct captures, no array indexing on the fast path. *)
    match bodies with
    | [||] ->
      fun t ->
        if t.steps + k > t.fuel_cap then slow t
        else begin
          let regs = t.cur_regs in
          let cregs = seam t regs t.cur_depth in
          let v = read_ret cregs in
          do_ret t callee_cf ~ret_to:caller_id;
          t.cur_regs <- regs;
          if dst_r >= 0 then
            match v with
            | Some x -> Array.unsafe_set regs dst_r x
            | None -> Array.unsafe_set regs dst_r 0
        end
    | [| b0 |] ->
      fun t ->
        if t.steps + k > t.fuel_cap then slow t
        else begin
          let regs = t.cur_regs in
          let cregs = seam t regs t.cur_depth in
          b0 t;
          let v = read_ret cregs in
          do_ret t callee_cf ~ret_to:caller_id;
          t.cur_regs <- regs;
          if dst_r >= 0 then
            match v with
            | Some x -> Array.unsafe_set regs dst_r x
            | None -> Array.unsafe_set regs dst_r 0
        end
    | [| b0; b1 |] ->
      fun t ->
        if t.steps + k > t.fuel_cap then slow t
        else begin
          let regs = t.cur_regs in
          let cregs = seam t regs t.cur_depth in
          b0 t;
          b1 t;
          let v = read_ret cregs in
          do_ret t callee_cf ~ret_to:caller_id;
          t.cur_regs <- regs;
          if dst_r >= 0 then
            match v with
            | Some x -> Array.unsafe_set regs dst_r x
            | None -> Array.unsafe_set regs dst_r 0
        end
    | _ ->
      let nbo = Array.length bodies in
      fun t ->
        if t.steps + k > t.fuel_cap then slow t
        else begin
          let regs = t.cur_regs in
          let cregs = seam t regs t.cur_depth in
          for j = 0 to nbo - 1 do
            (Array.unsafe_get bodies j) t
          done;
          let v = read_ret cregs in
          do_ret t callee_cf ~ret_to:caller_id;
          t.cur_regs <- regs;
          if dst_r >= 0 then
            match v with
            | Some x -> Array.unsafe_set regs dst_r x
            | None -> Array.unsafe_set regs dst_r 0
        end
  end

(* A call seam whose callee is not yet hot: run the unfused closure, but
   watch the dispatching engine's entry counter for the callee and swap
   in the fused closure (built once, on demand) when it crosses the
   threshold.  The swap is a plain ref-cell publication, safe by the
   same argument as every trampoline here: the closures are immutable
   after construction and both sides are bit-exact, so a racing domain
   seeing the stale cell merely takes the slower exact path once more. *)
let promotable (p : prog) ~callee_id ~(unfused : iexec) ~(build : unit -> iexec) :
    iexec =
  let thr = p.callfuse in
  let cell : iexec ref = ref unfused in
  let promoting t =
    if Array.unsafe_get t.tier_counts callee_id > thr then begin
      let f = build () in
      Atomic.incr p.pstats.fused_promoted;
      cell := f;
      f t
    end
    else unfused t
  in
  cell := promoting;
  fun t -> !cell t

(* Lower one complex instruction inside a chain, fusing eligible direct
   call seams when the program was compiled with fusion on.  [counts] is
   the triggering engine's per-function entry-counter array: a callee
   already hot at lowering time bakes the fused closure directly;
   otherwise the seam self-promotes at runtime. *)
let lower_cx ~spec (p : prog) ~counts (cf : cfunc) (i : Machine.cinst) : iexec =
  match i with
  | CCall { dst; callee = _; callee_id; args; site }
    when p.callfuse > 0 && callee_id >= 0 -> (
    match fuse_plan p.c2by_id.(callee_id) with
    | Some chain ->
      let unfused = ccomplex ~spec p.c2by_id cf i in
      let callee_name = p.c2by_id.(callee_id).c2.f.fname in
      let build () =
        Trace.span ~cat:"sched" "engine:callfuse"
          ~args:
            [ ("caller", Trace.Str cf.f.fname); ("callee", Trace.Str callee_name) ]
          (fun () ->
            let fx = build_fused ~spec p cf ~dst ~callee_id ~site ~args ~slow:unfused chain in
            Atomic.incr p.pstats.fused_seams;
            if Trace.enabled () then
              Trace.counter ~cat:"sched" "call-fused-seams"
                [
                  ("count", Trace.Int 1);
                  ("caller", Trace.Str cf.f.fname);
                  ("callee", Trace.Str callee_name);
                ];
            fx)
      in
      if Array.length counts > callee_id && Array.unsafe_get counts callee_id > p.callfuse
      then build ()
      else promotable p ~callee_id ~unfused ~build
    | None -> ccomplex ~spec p.c2by_id cf i)
  | _ -> ccomplex ~spec p.c2by_id cf i

(* ------------------------ terminators -------------------------- *)

let[@inline] br_follow t ~key ~taken =
  charge t Cost.br;
  if Pht.predict t.tpht ~key <> taken then begin
    t.ctrs.pht_misses <- t.ctrs.pht_misses + 1;
    charge t Cost.br_mispredict_penalty
  end;
  Pht.train t.tpht ~key ~taken

let cterm (bexecs : bexec array) (cf : cfunc) label (term : terminator) : bexec =
  match term with
  | Jmp l ->
    fun t ->
      charge t Cost.jmp;
      (Array.unsafe_get bexecs l) t
  | Br (Reg cr, l1, l2) ->
    let key = cf.key_base + label in
    fun t ->
      let taken = Array.unsafe_get t.cur_regs cr <> 0 in
      br_follow t ~key ~taken;
      if taken then (Array.unsafe_get bexecs l1) t
      else (Array.unsafe_get bexecs l2) t
  | Br (Imm i, l1, l2) ->
    let key = cf.key_base + label in
    let taken = i <> 0 in
    let l = if taken then l1 else l2 in
    fun t ->
      br_follow t ~key ~taken;
      (Array.unsafe_get bexecs l) t
  | Switch { scrutinee; cases; default; lowering } ->
    let ov = cop scrutinee in
    let ncases = Array.length cases in
    let cost =
      match lowering with
      | Jump_table -> Cost.switch_jump_table
      | Branch_ladder -> ladder_cost ncases
    in
    fun t ->
      let v = ov t.cur_regs in
      let rec find i =
        if i >= ncases then default
        else
          let case_v, l = cases.(i) in
          if case_v = v then l else find (i + 1)
      in
      let target = find 0 in
      charge t cost;
      (Array.unsafe_get bexecs target) t
  | Ret None ->
    fun t ->
      do_ret t cf ~ret_to:t.cur_ret_to;
      None
  | Ret (Some (Imm i)) ->
    fun t ->
      let v = Some i in
      do_ret t cf ~ret_to:t.cur_ret_to;
      v
  | Ret (Some (Reg r)) ->
    fun t ->
      let v = Some (Array.unsafe_get t.cur_regs r) in
      do_ret t cf ~ret_to:t.cur_ret_to;
      v

(* ------------------- blocks and superblocks -------------------- *)

(* Lower a chain of blocks — a single block in tier 1, a whole
   superblock in tier 2 — into one closure.  The chain's instruction
   streams are flattened into one item stream, each non-final block
   contributing an [SJump] seam marker for its unconditional terminator;
   the stream is partitioned into maximal fused segments and individual
   call instructions, and only the FINAL block's terminator is compiled
   (non-final terminators are guaranteed [Jmp] and live inside the
   segments as seam accounting). *)
let lower_chain ~spec ?stats (p : prog) ~counts (cf : cfunc) bexecs
    (chain : (int * Machine.cblock) list) : bexec =
  let fname = cf.f.fname in
  let mem_len = p.mem_len in
  let chunk_list, last_label, last_term = scan_chain chain in
  let chunks =
    Array.of_list
      (List.map
         (function
           | `Seg items -> compile_segment ~spec ~mem_len ?stats fname items
           | `Cx i -> lower_cx ~spec p ~counts cf i)
         chunk_list)
  in
  let term = cterm bexecs cf last_label last_term in
  match chunks with
  | [||] ->
    fun t ->
      step_fuel t;
      term t
  | [| c0 |] ->
    fun t ->
      c0 t;
      step_fuel t;
      term t
  | [| c0; c1 |] ->
    fun t ->
      c0 t;
      c1 t;
      step_fuel t;
      term t
  | [| c0; c1; c2 |] ->
    fun t ->
      c0 t;
      c1 t;
      c2 t;
      step_fuel t;
      term t
  | _ ->
    let n = Array.length chunks in
    fun t ->
      for i = 0 to n - 1 do
        (Array.unsafe_get chunks i) t
      done;
      step_fuel t;
      term t

(* Superblock trace formation: the trace headed at [l] follows
   unconditional [Jmp] edges for as long as they go — REGARDLESS of the
   target's predecessor count.  A shared tail (a merge point entered by
   [Jmp] from several arms) is duplicated into every trace that reaches
   it, which is exactly classic superblock tail duplication: on the
   optimized kernel images nearly every surviving [Jmp] targets a merge
   point (the cleanup pass already forwards the single-predecessor empty
   blocks away), so a single-predecessor-only rule finds nothing to fuse
   there.  Duplication is bounded twice over: traces stop on a revisit
   (no unrolling of [Jmp]-only cycles) and at [max_trace] blocks, and
   lazy per-head lowering means only the heads execution actually
   dispatches to ever pay for their copy of a tail.  A truncated trace
   simply ends in a [Jmp] terminator, which dispatches to the target
   head's own trace like any other transfer. *)
let max_trace = 32

let trace_of (cf : cfunc) l : (int * Machine.cblock) list =
  let rec go acc seen l' len =
    let b = cf.cblocks.(l') in
    match b.cterm with
    | Jmp s when len < max_trace && not (List.mem s seen) ->
      go ((l', b) :: acc) (s :: seen) s (len + 1)
    | _ -> List.rev ((l', b) :: acc)
  in
  go [] [ l ] l 1

(* ------------------- tier 3: register threading ----------------- *)

(* The hottest traces drop the per-instruction closure array entirely:
   the trace body becomes a flat [int array] instruction stream driven
   by ONE tail-recursive dispatch loop.  Opcode and operands live inline
   in the stream, so executing a simple instruction is an opcode load, a
   couple of operand loads and the arithmetic — no indirect call, no
   closure environment.  Accounting keeps the exact segment-batching
   shape: a [BATCH] word pre-charges a segment's fuel/insts/cycles (its
   guard falls back to the tier-2 per-item slow path, which dies at
   exactly the interpreter's instruction), and potentially-faulting
   instructions carry their rollback deltas inline.  Anything the
   encoder cannot express stays a closure behind an escape opcode: [PB]
   for statically out-of-bounds simple instructions (the tier-1 body
   with baked deltas), [CX] for calls and indirect transfers (the same
   chunk closures tier 2 uses, including fused call seams) — so tier 3
   never duplicates semantics, it only flattens dispatch. *)

let op_end = 0
let op_batch = 1 (* k ni total slow_aux next_pc *)
let op_cx = 2 (* aux_idx *)
let op_pb = 3 (* pb_idx *)
let op_const = 4 (* dst imm *)
let op_move = 5 (* dst src *)
let op_loadi = 6 (* dst addr — statically in bounds *)
let op_loadr = 7 (* dst addr_reg dc dns dni *)
let op_store_ii = 8 (* addr imm — statically in bounds *)
let op_store_ir = 9 (* addr val_reg — statically in bounds *)
let op_store_ri = 10 (* addr_reg imm dc dns dni *)
let op_store_rr = 11 (* addr_reg val_reg dc dns dni *)
let op_obs_i = 12 (* imm *)
let op_obs_r = 13 (* reg *)
let op_acc = 14 (* dst n (k operand)*n — left-accumulator binop run *)
let op_pair = 15 (* sh key d1 oa1 ob1 d2 oa2 ob2 — fused binop pair *)

(* Binops occupy [op_binop_base ..]: opcode = base + index*3 + shape,
   shape 0 = (Reg, Reg), 1 = (Reg, Imm), 2 = (Imm, Reg) — immediate
   pairs constant-fold into [op_const] at encode time.  Shift immediates
   are pre-masked at encode time. *)
let op_binop_base = 16

let binop_index = function
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Xor -> 3
  | And -> 4
  | Or -> 5
  | Shl -> 6
  | Shr -> 7
  | Lt -> 8
  | Eq -> 9

(* Left-accumulator shape test for [op_acc]: [d = op (Reg d) rhs] where
   [rhs] is an immediate (shape 0, shift amounts pre-masked like the RI
   binops) or a register other than [d] itself (shape 1 — an operand
   aliasing [d] would read the stale frame slot while the live value
   rides in the host register).  Returns the run key [d] plus the coded
   (k, operand) pair. *)
let acc_of = function
  | SInst (CAssign (d, Binop (op, Reg a, Imm y))) when a = d ->
    let y = match op with Shl | Shr -> y land 31 | _ -> y in
    Some (d, 2 * binop_index op, y)
  | SInst (CAssign (d, Binop (op, Reg a, Reg s))) when a = d && s <> d ->
    Some (d, (2 * binop_index op) + 1, s)
  | _ -> None

(* Operand-shape view of one codeable binop for [op_pair] pairing:
   [(dst, binop index, (a shape, a operand), (b shape, b operand))]
   with shape 0 = immediate, 1 = register (forwarding is decided at the
   pair site, where the first op's destination is known).  Shift-amount
   immediates are pre-masked here, mirroring the single-op encoders.
   Both-immediate binops constant-fold in the plain encoder instead. *)
let pair_of = function
  | SInst (CAssign (d, Binop (op, a, b))) -> (
    match (a, b) with
    | Imm _, Imm _ -> None
    | _ ->
      let oa = match a with Imm x -> (0, x) | Reg r -> (1, r) in
      let ob =
        match b with
        | Imm y -> (
          match op with Shl | Shr -> (0, y land 31) | _ -> (0, y))
        | Reg r -> (1, r)
      in
      Some (d, binop_index op, oa, ob))
  | _ -> None

(* Static context of one encoded trace; [code] is passed separately so
   the loop's per-opcode fetches touch it without a record load. *)
type t3ctx = {
  t3aux : iexec array;  (* CX escapes + BATCH slow paths *)
  t3pbs : pbody array;  (* PB escapes *)
  t3mem : int;
  t3fname : string;
}

(* The [op_pair] superinstruction: two consecutive binops retired by ONE
   dispatch.  On superscalar hosts the dominant per-instruction cost of
   an int-coded stream is the single polymorphic indirect jump at the
   dispatch switch, so halving the dispatch count roughly halves the
   floor; the 100 (op1, op2) arms below are mechanical expansions of
   the same eval rules the single-op opcodes use (this block and the
   [acc_loop] switch are machine-generated — edit the generator
   pattern, not individual arms).  Operand shapes ride in [sh]: bits
   0-1 select immediate/register for op1's operands, bits 2-3 and 4-5
   select immediate/register/forwarded for op2's (a register operand
   naming [d1] is encoded as forwarded and reads [w] — the frame slot
   store has not been observed by anything between the two ops, so
   forwarding is exact).  Shift immediates are pre-masked at encode
   time; register and forwarded shift amounts mask here, same as the
   single-op arms. *)
let pair_step (code : int array) (regs : int array) pc =
  let sh = Array.unsafe_get code (pc + 1) in
  let d1 = Array.unsafe_get code (pc + 3) in
  let oa1 = Array.unsafe_get code (pc + 4) and ob1 = Array.unsafe_get code (pc + 5) in
  let d2 = Array.unsafe_get code (pc + 6) in
  let oa2 = Array.unsafe_get code (pc + 7) and ob2 = Array.unsafe_get code (pc + 8) in
  let xa1 = if sh land 1 = 0 then oa1 else Array.unsafe_get regs oa1 in
  let xb1 = if sh land 2 = 0 then ob1 else Array.unsafe_get regs ob1 in
  let sa2 = (sh lsr 2) land 3 and sb2 = (sh lsr 4) land 3 in
  match Array.unsafe_get code (pc + 2) with
    | 0 ->
      let w = xa1 + xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 + xb2)
    | 1 ->
      let w = xa1 + xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 - xb2)
    | 2 ->
      let w = xa1 + xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 * xb2)
    | 3 ->
      let w = xa1 + xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lxor xb2)
    | 4 ->
      let w = xa1 + xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 land xb2)
    | 5 ->
      let w = xa1 + xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lor xb2)
    | 6 ->
      let w = xa1 + xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lsl (xb2 land 31))
    | 7 ->
      let w = xa1 + xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lsr (xb2 land 31))
    | 8 ->
      let w = xa1 + xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         if xa2 < xb2 then 1 else 0)
    | 9 ->
      let w = xa1 + xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         if xa2 = xb2 then 1 else 0)
    | 10 ->
      let w = xa1 - xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 + xb2)
    | 11 ->
      let w = xa1 - xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 - xb2)
    | 12 ->
      let w = xa1 - xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 * xb2)
    | 13 ->
      let w = xa1 - xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lxor xb2)
    | 14 ->
      let w = xa1 - xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 land xb2)
    | 15 ->
      let w = xa1 - xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lor xb2)
    | 16 ->
      let w = xa1 - xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lsl (xb2 land 31))
    | 17 ->
      let w = xa1 - xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lsr (xb2 land 31))
    | 18 ->
      let w = xa1 - xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         if xa2 < xb2 then 1 else 0)
    | 19 ->
      let w = xa1 - xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         if xa2 = xb2 then 1 else 0)
    | 20 ->
      let w = xa1 * xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 + xb2)
    | 21 ->
      let w = xa1 * xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 - xb2)
    | 22 ->
      let w = xa1 * xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 * xb2)
    | 23 ->
      let w = xa1 * xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lxor xb2)
    | 24 ->
      let w = xa1 * xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 land xb2)
    | 25 ->
      let w = xa1 * xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lor xb2)
    | 26 ->
      let w = xa1 * xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lsl (xb2 land 31))
    | 27 ->
      let w = xa1 * xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lsr (xb2 land 31))
    | 28 ->
      let w = xa1 * xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         if xa2 < xb2 then 1 else 0)
    | 29 ->
      let w = xa1 * xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         if xa2 = xb2 then 1 else 0)
    | 30 ->
      let w = xa1 lxor xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 + xb2)
    | 31 ->
      let w = xa1 lxor xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 - xb2)
    | 32 ->
      let w = xa1 lxor xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 * xb2)
    | 33 ->
      let w = xa1 lxor xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lxor xb2)
    | 34 ->
      let w = xa1 lxor xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 land xb2)
    | 35 ->
      let w = xa1 lxor xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lor xb2)
    | 36 ->
      let w = xa1 lxor xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lsl (xb2 land 31))
    | 37 ->
      let w = xa1 lxor xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lsr (xb2 land 31))
    | 38 ->
      let w = xa1 lxor xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         if xa2 < xb2 then 1 else 0)
    | 39 ->
      let w = xa1 lxor xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         if xa2 = xb2 then 1 else 0)
    | 40 ->
      let w = xa1 land xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 + xb2)
    | 41 ->
      let w = xa1 land xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 - xb2)
    | 42 ->
      let w = xa1 land xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 * xb2)
    | 43 ->
      let w = xa1 land xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lxor xb2)
    | 44 ->
      let w = xa1 land xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 land xb2)
    | 45 ->
      let w = xa1 land xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lor xb2)
    | 46 ->
      let w = xa1 land xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lsl (xb2 land 31))
    | 47 ->
      let w = xa1 land xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lsr (xb2 land 31))
    | 48 ->
      let w = xa1 land xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         if xa2 < xb2 then 1 else 0)
    | 49 ->
      let w = xa1 land xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         if xa2 = xb2 then 1 else 0)
    | 50 ->
      let w = xa1 lor xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 + xb2)
    | 51 ->
      let w = xa1 lor xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 - xb2)
    | 52 ->
      let w = xa1 lor xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 * xb2)
    | 53 ->
      let w = xa1 lor xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lxor xb2)
    | 54 ->
      let w = xa1 lor xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 land xb2)
    | 55 ->
      let w = xa1 lor xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lor xb2)
    | 56 ->
      let w = xa1 lor xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lsl (xb2 land 31))
    | 57 ->
      let w = xa1 lor xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lsr (xb2 land 31))
    | 58 ->
      let w = xa1 lor xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         if xa2 < xb2 then 1 else 0)
    | 59 ->
      let w = xa1 lor xb1 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         if xa2 = xb2 then 1 else 0)
    | 60 ->
      let w = xa1 lsl (xb1 land 31) in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 + xb2)
    | 61 ->
      let w = xa1 lsl (xb1 land 31) in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 - xb2)
    | 62 ->
      let w = xa1 lsl (xb1 land 31) in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 * xb2)
    | 63 ->
      let w = xa1 lsl (xb1 land 31) in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lxor xb2)
    | 64 ->
      let w = xa1 lsl (xb1 land 31) in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 land xb2)
    | 65 ->
      let w = xa1 lsl (xb1 land 31) in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lor xb2)
    | 66 ->
      let w = xa1 lsl (xb1 land 31) in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lsl (xb2 land 31))
    | 67 ->
      let w = xa1 lsl (xb1 land 31) in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lsr (xb2 land 31))
    | 68 ->
      let w = xa1 lsl (xb1 land 31) in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         if xa2 < xb2 then 1 else 0)
    | 69 ->
      let w = xa1 lsl (xb1 land 31) in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         if xa2 = xb2 then 1 else 0)
    | 70 ->
      let w = xa1 lsr (xb1 land 31) in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 + xb2)
    | 71 ->
      let w = xa1 lsr (xb1 land 31) in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 - xb2)
    | 72 ->
      let w = xa1 lsr (xb1 land 31) in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 * xb2)
    | 73 ->
      let w = xa1 lsr (xb1 land 31) in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lxor xb2)
    | 74 ->
      let w = xa1 lsr (xb1 land 31) in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 land xb2)
    | 75 ->
      let w = xa1 lsr (xb1 land 31) in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lor xb2)
    | 76 ->
      let w = xa1 lsr (xb1 land 31) in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lsl (xb2 land 31))
    | 77 ->
      let w = xa1 lsr (xb1 land 31) in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lsr (xb2 land 31))
    | 78 ->
      let w = xa1 lsr (xb1 land 31) in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         if xa2 < xb2 then 1 else 0)
    | 79 ->
      let w = xa1 lsr (xb1 land 31) in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         if xa2 = xb2 then 1 else 0)
    | 80 ->
      let w = if xa1 < xb1 then 1 else 0 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 + xb2)
    | 81 ->
      let w = if xa1 < xb1 then 1 else 0 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 - xb2)
    | 82 ->
      let w = if xa1 < xb1 then 1 else 0 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 * xb2)
    | 83 ->
      let w = if xa1 < xb1 then 1 else 0 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lxor xb2)
    | 84 ->
      let w = if xa1 < xb1 then 1 else 0 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 land xb2)
    | 85 ->
      let w = if xa1 < xb1 then 1 else 0 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lor xb2)
    | 86 ->
      let w = if xa1 < xb1 then 1 else 0 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lsl (xb2 land 31))
    | 87 ->
      let w = if xa1 < xb1 then 1 else 0 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lsr (xb2 land 31))
    | 88 ->
      let w = if xa1 < xb1 then 1 else 0 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         if xa2 < xb2 then 1 else 0)
    | 89 ->
      let w = if xa1 < xb1 then 1 else 0 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         if xa2 = xb2 then 1 else 0)
    | 90 ->
      let w = if xa1 = xb1 then 1 else 0 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 + xb2)
    | 91 ->
      let w = if xa1 = xb1 then 1 else 0 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 - xb2)
    | 92 ->
      let w = if xa1 = xb1 then 1 else 0 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 * xb2)
    | 93 ->
      let w = if xa1 = xb1 then 1 else 0 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lxor xb2)
    | 94 ->
      let w = if xa1 = xb1 then 1 else 0 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 land xb2)
    | 95 ->
      let w = if xa1 = xb1 then 1 else 0 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lor xb2)
    | 96 ->
      let w = if xa1 = xb1 then 1 else 0 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lsl (xb2 land 31))
    | 97 ->
      let w = if xa1 = xb1 then 1 else 0 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         xa2 lsr (xb2 land 31))
    | 98 ->
      let w = if xa1 = xb1 then 1 else 0 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         if xa2 < xb2 then 1 else 0)
    | _ ->
      let w = if xa1 = xb1 then 1 else 0 in
      Array.unsafe_set regs d1 w;
      Array.unsafe_set regs d2
        (let xa2 = if sa2 = 0 then oa2 else if sa2 = 1 then Array.unsafe_get regs oa2 else w in
         let xb2 = if sb2 = 0 then ob2 else if sb2 = 1 then Array.unsafe_get regs ob2 else w in
         if xa2 = xb2 then 1 else 0)

(* The [op_acc] superinstruction body: a run of left-accumulator binops
   [d = op d rhs] whose live value stays in [v] — a host register — for
   the whole run.  Items are consumed TWO per dispatch: operands are
   shape-resolved first (bit 0 of [k]: 0 = immediate, pre-masked for
   shifts; 1 = register operand, never [d] itself), then one dense
   100-way switch keyed on the op pair applies both.  One polymorphic
   indirect jump per instruction is exactly the dispatch floor this
   tier exists to break — and an int-switch interpreter pays it at its
   single jump-table site just like tier 2 would pay it at a shared
   [caml_apply] trampoline — so halving the dispatch count is worth a
   10x wider (machine-generated) switch.  A trailing odd item takes the
   10-way epilogue. *)
let rec acc_loop (code : int array) (regs : int array) v pc n =
  if n >= 2 then begin
    let k1 = Array.unsafe_get code pc and o1 = Array.unsafe_get code (pc + 1) in
    let k2 = Array.unsafe_get code (pc + 2) and o2 = Array.unsafe_get code (pc + 3) in
    let x1 = if k1 land 1 = 0 then o1 else Array.unsafe_get regs o1 in
    let x2 = if k2 land 1 = 0 then o2 else Array.unsafe_get regs o2 in
    let v =
      match ((k1 lsr 1) * 10) + (k2 lsr 1) with
      | 0 -> ((v + x1) + x2)
      | 1 -> ((v + x1) - x2)
      | 2 -> ((v + x1) * x2)
      | 3 -> ((v + x1) lxor x2)
      | 4 -> ((v + x1) land x2)
      | 5 -> ((v + x1) lor x2)
      | 6 -> ((v + x1) lsl (x2 land 31))
      | 7 -> ((v + x1) lsr (x2 land 31))
      | 8 -> (if (v + x1) < x2 then 1 else 0)
      | 9 -> (if (v + x1) = x2 then 1 else 0)
      | 10 -> ((v - x1) + x2)
      | 11 -> ((v - x1) - x2)
      | 12 -> ((v - x1) * x2)
      | 13 -> ((v - x1) lxor x2)
      | 14 -> ((v - x1) land x2)
      | 15 -> ((v - x1) lor x2)
      | 16 -> ((v - x1) lsl (x2 land 31))
      | 17 -> ((v - x1) lsr (x2 land 31))
      | 18 -> (if (v - x1) < x2 then 1 else 0)
      | 19 -> (if (v - x1) = x2 then 1 else 0)
      | 20 -> ((v * x1) + x2)
      | 21 -> ((v * x1) - x2)
      | 22 -> ((v * x1) * x2)
      | 23 -> ((v * x1) lxor x2)
      | 24 -> ((v * x1) land x2)
      | 25 -> ((v * x1) lor x2)
      | 26 -> ((v * x1) lsl (x2 land 31))
      | 27 -> ((v * x1) lsr (x2 land 31))
      | 28 -> (if (v * x1) < x2 then 1 else 0)
      | 29 -> (if (v * x1) = x2 then 1 else 0)
      | 30 -> ((v lxor x1) + x2)
      | 31 -> ((v lxor x1) - x2)
      | 32 -> ((v lxor x1) * x2)
      | 33 -> ((v lxor x1) lxor x2)
      | 34 -> ((v lxor x1) land x2)
      | 35 -> ((v lxor x1) lor x2)
      | 36 -> ((v lxor x1) lsl (x2 land 31))
      | 37 -> ((v lxor x1) lsr (x2 land 31))
      | 38 -> (if (v lxor x1) < x2 then 1 else 0)
      | 39 -> (if (v lxor x1) = x2 then 1 else 0)
      | 40 -> ((v land x1) + x2)
      | 41 -> ((v land x1) - x2)
      | 42 -> ((v land x1) * x2)
      | 43 -> ((v land x1) lxor x2)
      | 44 -> ((v land x1) land x2)
      | 45 -> ((v land x1) lor x2)
      | 46 -> ((v land x1) lsl (x2 land 31))
      | 47 -> ((v land x1) lsr (x2 land 31))
      | 48 -> (if (v land x1) < x2 then 1 else 0)
      | 49 -> (if (v land x1) = x2 then 1 else 0)
      | 50 -> ((v lor x1) + x2)
      | 51 -> ((v lor x1) - x2)
      | 52 -> ((v lor x1) * x2)
      | 53 -> ((v lor x1) lxor x2)
      | 54 -> ((v lor x1) land x2)
      | 55 -> ((v lor x1) lor x2)
      | 56 -> ((v lor x1) lsl (x2 land 31))
      | 57 -> ((v lor x1) lsr (x2 land 31))
      | 58 -> (if (v lor x1) < x2 then 1 else 0)
      | 59 -> (if (v lor x1) = x2 then 1 else 0)
      | 60 -> ((v lsl (x1 land 31)) + x2)
      | 61 -> ((v lsl (x1 land 31)) - x2)
      | 62 -> ((v lsl (x1 land 31)) * x2)
      | 63 -> ((v lsl (x1 land 31)) lxor x2)
      | 64 -> ((v lsl (x1 land 31)) land x2)
      | 65 -> ((v lsl (x1 land 31)) lor x2)
      | 66 -> ((v lsl (x1 land 31)) lsl (x2 land 31))
      | 67 -> ((v lsl (x1 land 31)) lsr (x2 land 31))
      | 68 -> (if (v lsl (x1 land 31)) < x2 then 1 else 0)
      | 69 -> (if (v lsl (x1 land 31)) = x2 then 1 else 0)
      | 70 -> ((v lsr (x1 land 31)) + x2)
      | 71 -> ((v lsr (x1 land 31)) - x2)
      | 72 -> ((v lsr (x1 land 31)) * x2)
      | 73 -> ((v lsr (x1 land 31)) lxor x2)
      | 74 -> ((v lsr (x1 land 31)) land x2)
      | 75 -> ((v lsr (x1 land 31)) lor x2)
      | 76 -> ((v lsr (x1 land 31)) lsl (x2 land 31))
      | 77 -> ((v lsr (x1 land 31)) lsr (x2 land 31))
      | 78 -> (if (v lsr (x1 land 31)) < x2 then 1 else 0)
      | 79 -> (if (v lsr (x1 land 31)) = x2 then 1 else 0)
      | 80 -> ((if v < x1 then 1 else 0) + x2)
      | 81 -> ((if v < x1 then 1 else 0) - x2)
      | 82 -> ((if v < x1 then 1 else 0) * x2)
      | 83 -> ((if v < x1 then 1 else 0) lxor x2)
      | 84 -> ((if v < x1 then 1 else 0) land x2)
      | 85 -> ((if v < x1 then 1 else 0) lor x2)
      | 86 -> ((if v < x1 then 1 else 0) lsl (x2 land 31))
      | 87 -> ((if v < x1 then 1 else 0) lsr (x2 land 31))
      | 88 -> (if (if v < x1 then 1 else 0) < x2 then 1 else 0)
      | 89 -> (if (if v < x1 then 1 else 0) = x2 then 1 else 0)
      | 90 -> ((if v = x1 then 1 else 0) + x2)
      | 91 -> ((if v = x1 then 1 else 0) - x2)
      | 92 -> ((if v = x1 then 1 else 0) * x2)
      | 93 -> ((if v = x1 then 1 else 0) lxor x2)
      | 94 -> ((if v = x1 then 1 else 0) land x2)
      | 95 -> ((if v = x1 then 1 else 0) lor x2)
      | 96 -> ((if v = x1 then 1 else 0) lsl (x2 land 31))
      | 97 -> ((if v = x1 then 1 else 0) lsr (x2 land 31))
      | 98 -> (if (if v = x1 then 1 else 0) < x2 then 1 else 0)
      | _ -> (if (if v = x1 then 1 else 0) = x2 then 1 else 0)
    in
    acc_loop code regs v (pc + 4) (n - 2)
  end
  else if n = 1 then begin
    let k = Array.unsafe_get code pc and o = Array.unsafe_get code (pc + 1) in
    let x = if k land 1 = 0 then o else Array.unsafe_get regs o in
    match k lsr 1 with
    | 0 -> v + x
    | 1 -> v - x
    | 2 -> v * x
    | 3 -> v lxor x
    | 4 -> v land x
    | 5 -> v lor x
    | 6 -> v lsl (x land 31)
    | 7 -> v lsr (x land 31)
    | 8 -> if v < x then 1 else 0
    | _ -> if v = x then 1 else 0
  end
  else v

let rec t3_step (code : int array) (c : t3ctx) t (regs : int array) pc =
  let op = Array.unsafe_get code pc in
  if op >= op_binop_base then begin
    let d = Array.unsafe_get code (pc + 1)
    and a = Array.unsafe_get code (pc + 2)
    and b = Array.unsafe_get code (pc + 3) in
    (match op - op_binop_base with
    | 0 ->
      Array.unsafe_set regs d (Array.unsafe_get regs a + Array.unsafe_get regs b)
    | 1 -> Array.unsafe_set regs d (Array.unsafe_get regs a + b)
    | 2 -> Array.unsafe_set regs d (a + Array.unsafe_get regs b)
    | 3 ->
      Array.unsafe_set regs d (Array.unsafe_get regs a - Array.unsafe_get regs b)
    | 4 -> Array.unsafe_set regs d (Array.unsafe_get regs a - b)
    | 5 -> Array.unsafe_set regs d (a - Array.unsafe_get regs b)
    | 6 ->
      Array.unsafe_set regs d (Array.unsafe_get regs a * Array.unsafe_get regs b)
    | 7 -> Array.unsafe_set regs d (Array.unsafe_get regs a * b)
    | 8 -> Array.unsafe_set regs d (a * Array.unsafe_get regs b)
    | 9 ->
      Array.unsafe_set regs d
        (Array.unsafe_get regs a lxor Array.unsafe_get regs b)
    | 10 -> Array.unsafe_set regs d (Array.unsafe_get regs a lxor b)
    | 11 -> Array.unsafe_set regs d (a lxor Array.unsafe_get regs b)
    | 12 ->
      Array.unsafe_set regs d
        (Array.unsafe_get regs a land Array.unsafe_get regs b)
    | 13 -> Array.unsafe_set regs d (Array.unsafe_get regs a land b)
    | 14 -> Array.unsafe_set regs d (a land Array.unsafe_get regs b)
    | 15 ->
      Array.unsafe_set regs d (Array.unsafe_get regs a lor Array.unsafe_get regs b)
    | 16 -> Array.unsafe_set regs d (Array.unsafe_get regs a lor b)
    | 17 -> Array.unsafe_set regs d (a lor Array.unsafe_get regs b)
    | 18 ->
      Array.unsafe_set regs d
        (Array.unsafe_get regs a lsl (Array.unsafe_get regs b land 31))
    | 19 -> Array.unsafe_set regs d (Array.unsafe_get regs a lsl b)
    | 20 -> Array.unsafe_set regs d (a lsl (Array.unsafe_get regs b land 31))
    | 21 ->
      Array.unsafe_set regs d
        (Array.unsafe_get regs a lsr (Array.unsafe_get regs b land 31))
    | 22 -> Array.unsafe_set regs d (Array.unsafe_get regs a lsr b)
    | 23 -> Array.unsafe_set regs d (a lsr (Array.unsafe_get regs b land 31))
    | 24 ->
      Array.unsafe_set regs d
        (if Array.unsafe_get regs a < Array.unsafe_get regs b then 1 else 0)
    | 25 -> Array.unsafe_set regs d (if Array.unsafe_get regs a < b then 1 else 0)
    | 26 -> Array.unsafe_set regs d (if a < Array.unsafe_get regs b then 1 else 0)
    | 27 ->
      Array.unsafe_set regs d
        (if Array.unsafe_get regs a = Array.unsafe_get regs b then 1 else 0)
    | 28 -> Array.unsafe_set regs d (if Array.unsafe_get regs a = b then 1 else 0)
    | _ -> Array.unsafe_set regs d (if a = Array.unsafe_get regs b then 1 else 0));
    t3_step code c t regs (pc + 4)
  end
  else if op = op_batch then begin
    let k = Array.unsafe_get code (pc + 1) in
    if t.steps + k > t.fuel_cap then begin
      (* the tier-2 slow segment replays per item and raises at exactly
         the interpreter's instruction; if it ever returned (it cannot —
         the guard implies some item exhausts the budget), resuming past
         the batch would be the correct continuation *)
      (Array.unsafe_get c.t3aux (Array.unsafe_get code (pc + 4))) t;
      t3_step code c t regs (Array.unsafe_get code (pc + 5))
    end
    else begin
      t.steps <- t.steps + k;
      t.ctrs.insts <- t.ctrs.insts + Array.unsafe_get code (pc + 2);
      t.cyc <- t.cyc + Array.unsafe_get code (pc + 3);
      t3_step code c t regs (pc + 6)
    end
  end
  else
    match op with
    | 2 (* op_cx *) ->
      (Array.unsafe_get c.t3aux (Array.unsafe_get code (pc + 1))) t;
      t3_step code c t regs (pc + 2)
    | 3 (* op_pb *) ->
      publish_regs t regs;
      (Array.unsafe_get c.t3pbs (Array.unsafe_get code (pc + 1))) t;
      t3_step code c t regs (pc + 2)
    | 4 (* op_const *) ->
      Array.unsafe_set regs (Array.unsafe_get code (pc + 1)) (Array.unsafe_get code (pc + 2));
      t3_step code c t regs (pc + 3)
    | 5 (* op_move *) ->
      Array.unsafe_set regs
        (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get regs (Array.unsafe_get code (pc + 2)));
      t3_step code c t regs (pc + 3)
    | 6 (* op_loadi *) ->
      Array.unsafe_set regs
        (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get t.mem (Array.unsafe_get code (pc + 2)));
      t3_step code c t regs (pc + 3)
    | 7 (* op_loadr *) ->
      let addr = Array.unsafe_get regs (Array.unsafe_get code (pc + 2)) in
      if addr < 0 || addr >= c.t3mem then begin
        seg_unwind t
          ~dc:(Array.unsafe_get code (pc + 3))
          ~dns:(Array.unsafe_get code (pc + 4))
          ~dni:(Array.unsafe_get code (pc + 5));
        raise (oob_load c.t3fname addr)
      end
      else begin
        Array.unsafe_set regs (Array.unsafe_get code (pc + 1)) (Array.unsafe_get t.mem addr);
        t3_step code c t regs (pc + 6)
      end
    | 8 (* op_store_ii *) ->
      Array.unsafe_set t.mem (Array.unsafe_get code (pc + 1)) (Array.unsafe_get code (pc + 2));
      t3_step code c t regs (pc + 3)
    | 9 (* op_store_ir *) ->
      Array.unsafe_set t.mem
        (Array.unsafe_get code (pc + 1))
        (Array.unsafe_get regs (Array.unsafe_get code (pc + 2)));
      t3_step code c t regs (pc + 3)
    | 10 (* op_store_ri *) ->
      let addr = Array.unsafe_get regs (Array.unsafe_get code (pc + 1)) in
      if addr < 0 || addr >= c.t3mem then begin
        seg_unwind t
          ~dc:(Array.unsafe_get code (pc + 3))
          ~dns:(Array.unsafe_get code (pc + 4))
          ~dni:(Array.unsafe_get code (pc + 5));
        raise (oob_store c.t3fname addr)
      end
      else begin
        Array.unsafe_set t.mem addr (Array.unsafe_get code (pc + 2));
        t3_step code c t regs (pc + 6)
      end
    | 11 (* op_store_rr *) ->
      let addr = Array.unsafe_get regs (Array.unsafe_get code (pc + 1)) in
      if addr < 0 || addr >= c.t3mem then begin
        seg_unwind t
          ~dc:(Array.unsafe_get code (pc + 3))
          ~dns:(Array.unsafe_get code (pc + 4))
          ~dni:(Array.unsafe_get code (pc + 5));
        raise (oob_store c.t3fname addr)
      end
      else begin
        Array.unsafe_set t.mem addr
          (Array.unsafe_get regs (Array.unsafe_get code (pc + 2)));
        t3_step code c t regs (pc + 6)
      end
    | 12 (* op_obs_i *) ->
      (if t.cfg.record_trace then
         t.trace_rev <- Array.unsafe_get code (pc + 1) :: t.trace_rev);
      t3_step code c t regs (pc + 2)
    | 13 (* op_obs_r *) ->
      (if t.cfg.record_trace then
         t.trace_rev <-
           Array.unsafe_get regs (Array.unsafe_get code (pc + 1)) :: t.trace_rev);
      t3_step code c t regs (pc + 2)
    | 14 (* op_acc *) ->
      let d = Array.unsafe_get code (pc + 1) in
      let n = Array.unsafe_get code (pc + 2) in
      Array.unsafe_set regs d
        (acc_loop code regs (Array.unsafe_get regs d) (pc + 3) n);
      t3_step code c t regs (pc + 3 + (2 * n))
    | 15 (* op_pair *) ->
      pair_step code regs pc;
      t3_step code c t regs (pc + 9)
    | _ (* op_end *) -> ()

(* Encode a trace into a [t3ctx] + code stream and return its [bexec]:
   the dispatch loop runs the flattened body, then the (closure)
   terminator — terminators chain into [bexecs] like every tier, so
   tier-3 traces dispatch to tier-3 successors.  Returns the coverage
   split for observability. *)
let lower_chain_t3 (p : prog) ~counts (cf : cfunc) bexecs
    (chain : (int * Machine.cblock) list) : bexec * int * int =
  let fname = cf.f.fname in
  let mem_len = p.mem_len in
  let chunk_list, last_label, last_term = scan_chain chain in
  let buf = ref (Array.make 64 0) and blen = ref 0 in
  let emit v =
    (if !blen = Array.length !buf then begin
       let g = Array.make (2 * !blen) 0 in
       Array.blit !buf 0 g 0 !blen;
       buf := g
     end);
    !buf.(!blen) <- v;
    incr blen
  in
  let auxs = ref [] and naux = ref 0 in
  let add_aux (x : iexec) =
    auxs := x :: !auxs;
    let i = !naux in
    incr naux;
    i
  in
  let pbs = ref [] and npb = ref 0 in
  let add_pb (x : pbody) =
    pbs := x :: !pbs;
    let i = !npb in
    incr npb;
    i
  in
  let coded = ref 0 and total_insts = ref 0 in
  List.iter
    (function
      | `Cx i ->
        emit op_cx;
        emit (add_aux (lower_cx ~spec:false p ~counts cf i))
      | `Seg items ->
        let k = Array.length items in
        let _costs, total, ni, dcs, dnss, dnis = seg_suffixes items in
        emit op_batch;
        emit k;
        emit ni;
        emit total;
        emit (add_aux (compile_segment ~spec:false ~mem_len fname items));
        let nxt_pos = !blen in
        emit 0 (* next_pc, backpatched below *);
        let encode_one j it =
          match it with
          | SJump -> ()
          | SInst i -> (
              incr total_insts;
              let dc = dcs.(j) and dns = dnss.(j) and dni = dnis.(j) in
              let code () = incr coded in
              match i with
              | CAssign (d, (Const v | Move (Imm v))) ->
                code ();
                emit op_const;
                emit d;
                emit v
              | CAssign (d, Move (Reg s)) ->
                code ();
                emit op_move;
                emit d;
                emit s
              | CAssign (d, Binop (op, Imm x, Imm y)) ->
                code ();
                emit op_const;
                emit d;
                emit (eval_binop op x y)
              | CAssign (d, Binop (op, Reg x, Reg y)) ->
                code ();
                emit (op_binop_base + (3 * binop_index op));
                emit d;
                emit x;
                emit y
              | CAssign (d, Binop (op, Reg x, Imm y)) ->
                code ();
                let y = match op with Shl | Shr -> y land 31 | _ -> y in
                emit (op_binop_base + (3 * binop_index op) + 1);
                emit d;
                emit x;
                emit y
              | CAssign (d, Binop (op, Imm x, Reg y)) ->
                code ();
                emit (op_binop_base + (3 * binop_index op) + 2);
                emit d;
                emit x;
                emit y
              | CAssign (d, Load (Imm a)) when a >= 0 && a < mem_len ->
                code ();
                emit op_loadi;
                emit d;
                emit a
              | CAssign (d, Load (Reg ar)) ->
                code ();
                emit op_loadr;
                emit d;
                emit ar;
                emit dc;
                emit dns;
                emit dni
              | CStore (Imm a, Imm v) when a >= 0 && a < mem_len ->
                code ();
                emit op_store_ii;
                emit a;
                emit v
              | CStore (Imm a, Reg vr) when a >= 0 && a < mem_len ->
                code ();
                emit op_store_ir;
                emit a;
                emit vr
              | CStore (Reg ar, Imm v) ->
                code ();
                emit op_store_ri;
                emit ar;
                emit v;
                emit dc;
                emit dns;
                emit dni
              | CStore (Reg ar, Reg vr) ->
                code ();
                emit op_store_rr;
                emit ar;
                emit vr;
                emit dc;
                emit dns;
                emit dni
              | CObserve (Imm v) ->
                code ();
                emit op_obs_i;
                emit v
              | CObserve (Reg r) ->
                code ();
                emit op_obs_r;
                emit r
              | CAssign _ | CStore _ ->
                (* statically out-of-bounds access: keep the tier-1
                   closure (its baked unwind + raise is the semantics) *)
                emit op_pb;
                emit (add_pb (pbody_of ~mem_len fname ~dc ~dns ~dni i))
              | CCall _ | CIcall _ | CAsm_icall _ -> assert false)
        in
        (* Superinstruction selection, in priority order: collapse
           maximal left-accumulator runs into one [op_acc]; fuse any
           remaining adjacent codeable binops into [op_pair] (the shape
           SSA-style lowering produces — fresh destination per assign,
           so accumulator runs rarely form); encode the rest item by
           item.  Binops never fault, so neither superinstruction
           carries unwind deltas and accounting stays entirely in the
           batch word. *)
        let nitems = Array.length items in
        let try_pair j0 =
          j0 + 1 < nitems
          &&
          match (pair_of items.(j0), pair_of items.(j0 + 1)) with
          | ( Some (d1, k1, (sa1, oa1), (sb1, ob1)),
              Some (d2, k2, a2, b2) ) ->
            (* a second-op register operand naming [d1] reads the
               forwarded value (shape 2) instead of the frame slot *)
            let fwd (s, o) = if s = 1 && o = d1 then (2, o) else (s, o) in
            let sa2, oa2 = fwd a2 and sb2, ob2 = fwd b2 in
            total_insts := !total_insts + 2;
            coded := !coded + 2;
            emit op_pair;
            emit (sa1 lor (sb1 lsl 1) lor (sa2 lsl 2) lor (sb2 lsl 4));
            emit ((k1 * 10) + k2);
            emit d1;
            emit oa1;
            emit ob1;
            emit d2;
            emit oa2;
            emit ob2;
            true
          | _ -> false
        in
        let j = ref 0 in
        while !j < nitems do
          let pair_or_single () =
            if try_pair !j then j := !j + 2
            else begin
              encode_one !j items.(!j);
              incr j
            end
          in
          match acc_of items.(!j) with
          | Some (d, _, _) ->
            let stop = ref (!j + 1) in
            while
              !stop < nitems
              &&
              match acc_of items.(!stop) with
              | Some (d', _, _) -> d' = d
              | None -> false
            do
              incr stop
            done;
            let len = !stop - !j in
            if len >= 2 then begin
              emit op_acc;
              emit d;
              emit len;
              for jj = !j to !stop - 1 do
                match acc_of items.(jj) with
                | Some (_, k, o) ->
                  incr total_insts;
                  incr coded;
                  emit k;
                  emit o
                | None -> assert false
              done;
              j := !stop
            end
            else pair_or_single ()
          | None -> pair_or_single ()
        done;
        !buf.(nxt_pos) <- !blen)
    chunk_list;
  emit op_end;
  let code = Array.sub !buf 0 !blen in
  let ctx =
    {
      t3aux = Array.of_list (List.rev !auxs);
      t3pbs = Array.of_list (List.rev !pbs);
      t3mem = mem_len;
      t3fname = fname;
    }
  in
  let term = cterm bexecs cf last_label last_term in
  let bx : bexec =
   fun t ->
    t3_step code ctx t t.cur_regs 0;
    step_fuel t;
    term t
  in
  (bx, !coded, !total_insts)

(* Static tier-3 adoption gate.  Int-coding pays off when the dispatch
   loop can chew through long straight-line stretches; on call-dominated
   traces every complex item (call, fused seam, branch-heavy tail)
   bounces through [op_cx]'s extra closure indirection and the coding
   overhead loses to the plain tier-2 segment closures.  The predicate
   is a pure function of the superblock shape — no profile counts — so
   the tier-3/tier-2 lowering choice per trace is deterministic across
   runs and across [jobs] settings: a trace is int-coded only when it
   has at least [t3_min_insts] codeable instructions and more than
   [t3_cx_ratio] of them per complex item. *)
let t3_min_insts = 8
let t3_cx_ratio = 4

let t3_profitable (chain : (int * Machine.cblock) list) : bool =
  let chunk_list, _, _ = scan_chain chain in
  let insts = ref 0 and ncx = ref 0 in
  List.iter
    (function
      | `Cx _ -> incr ncx
      | `Seg items ->
        Array.iter (function SInst _ -> incr insts | SJump -> ()) items)
    chunk_list;
  !insts >= t3_min_insts && !insts > t3_cx_ratio * !ncx

(* Lower one function variant into its entry [fexec].  [tier] selects
   the lowering (1, 2 or 3; tier 3 is plain-only).

   Tier 1 is lazy per BLOCK: on the aggressively inlined images a
   function has hundreds of blocks and a workload touches a few percent
   of them, so eager per-function lowering (the PR5 shape) wastes most
   of its work.  Tiers 2 and 3 lower one closure (or one int-coded
   stream) per superblock trace, {e lazily per head}: every label gets a
   trampoline that lowers [trace_of] its label on first dispatch
   (double-checked under a per-variant mutex) and replaces itself in
   [bexecs] — terminators fetch [bexecs.(l)] at dispatch time, so the
   swap is picked up transparently.  Paying fused lowering (and the tail
   duplication it implies) only for the heads the workload actually
   dispatches to cuts the tier-up cost by the cold-block factor, which
   is what makes promotion profitable for short-lived engines.
   Lowering is pure and emits nothing observable (trace events are
   "sched"-category), so the execution-order dependence of the laziness
   is invisible; the triggering engine's [tier_counts] seed the
   call-seam hot-at-lowering decision, whose outcome is bit-exact either
   way.  Superblock shape ([sb_count]/[sb_blocks]) is known statically
   and recorded at link time; segment coverage accumulates in [stats] as
   traces lower. *)
let lower_fexec ~spec ~tier ?stats (p : prog) (c2f : cfunc2) : fexec =
  let cf = c2f.c2 in
  let nblocks = Array.length cf.cblocks in
  let dead : bexec = fun _ -> assert false in
  let bexecs = Array.make nblocks dead in
  (if tier >= 2 then begin
     (match stats with
     | Some st ->
       (* Static superblock shape: every label heads a trace; the
          multi-block ones are the fusion opportunities (tails shared by
          several traces are counted once per trace — they are lowered
          once per trace too). *)
       for l = 0 to nblocks - 1 do
         match trace_of cf l with
         | _ :: _ :: _ as c ->
           st.sb_count <- st.sb_count + 1;
           st.sb_blocks <- st.sb_blocks + List.length c
         | _ -> ()
       done
     | None -> ());
     let mu = Mutex.create () in
     let lowered = Array.make nblocks false in
     for l = 0 to nblocks - 1 do
       bexecs.(l) <-
         (fun t ->
           Mutex.lock mu;
           if not lowered.(l) then begin
             let chain = trace_of cf l in
             (if tier = 3 && t3_profitable chain then begin
                let bx, coded, total =
                  Trace.span ~cat:"sched" "engine:tier3"
                    ~args:[ ("fn", Trace.Str cf.f.fname) ]
                    (fun () ->
                      lower_chain_t3 p ~counts:t.tier_counts cf bexecs chain)
                in
                bexecs.(l) <- bx;
                Atomic.incr p.pstats.t3_traces;
                ignore (Atomic.fetch_and_add p.pstats.t3_coded coded);
                ignore (Atomic.fetch_and_add p.pstats.t3_insts total);
                if Trace.enabled () then
                  Trace.counter ~cat:"sched" "tier3-inst-coverage"
                    [ ("coded", Trace.Int coded); ("total", Trace.Int total) ]
              end
              else
                bexecs.(l) <-
                  lower_chain ~spec ?stats p ~counts:t.tier_counts cf bexecs
                    chain);
             lowered.(l) <- true;
             match stats with
             | Some s when Trace.enabled () ->
               Trace.counter ~cat:"sched" "segment-coverage"
                 [ ("fused", Trace.Int s.seg_fused); ("total", Trace.Int s.seg_total) ]
             | _ -> ()
           end;
           Mutex.unlock mu;
           bexecs.(l) t)
     done
   end
   else begin
     let mu = Mutex.create () in
     let lowered = Array.make nblocks false in
     for l = 0 to nblocks - 1 do
       bexecs.(l) <-
         (fun t ->
           Mutex.lock mu;
           if not lowered.(l) then begin
             bexecs.(l) <-
               lower_chain ~spec p ~counts:t.tier_counts cf bexecs
                 [ (l, cf.cblocks.(l)) ];
             lowered.(l) <- true
           end;
           Mutex.unlock mu;
           bexecs.(l) t)
     done
   end);
  let entry = cf.f.entry in
  if spec then begin
    let zs = c2f.zeroset in
    let flen = cf.frame_len in
    fun t ->
      enter_frame t cf;
      (* The caller never writes the callee's taint file, so every
         entry-live slot must be [None]-ed — but only those: stale taint
         on registers that are dead on entry is unobservable, by the
         same liveness argument as the value frame. *)
      let taint = raw_taint_frame t ~depth:t.cur_depth ~len:flen in
      for i = 0 to Array.length zs - 1 do
        Array.unsafe_set taint (Array.unsafe_get zs i) None
      done;
      publish_taint t taint;
      bexecs.(entry) t
  end
  else
    fun t ->
      enter_frame t cf;
      bexecs.(entry) t

(* --------------------- lazy linking & tiers -------------------- *)

(* All four variants (tier x speculation) are lowered lazily, per
   function, on the first call that reaches them (double-checked under
   [link_lock]): compile itself is one cheap liveness pass, and only the
   functions a workload actually executes — in the tiers its heat
   actually reaches, under the speculation settings it actually uses —
   ever pay for closure construction.  That matters for
   compile-dominated workloads: short attack drills over many images,
   and the online loop's fresh controller program every window.

   Call closures fetch their callee's [fexec_*] field at call time, so a
   linked body is picked up transparently; the only cross-function data
   baked at construction time is the callee's [zeroset], which [compile]
   computes eagerly for exactly that reason.  All [t1_*]/[t2_*] fields
   and [*_linked] flags — and, in a baseline program, the published
   [fexec_*] fields — are only written under the lock.  A racing domain
   either still sees a trampoline — and then synchronizes on the lock
   before re-reading the field — or sees the published closure; unlinked
   bodies are never reachable. *)

let link_fused_traced ~spec p c2f =
  let cf = c2f.c2 in
  let stats = { sb_count = 0; sb_blocks = 0; seg_fused = 0; seg_total = 0 } in
  let fx =
    Trace.span ~cat:"sched" "engine:tierup"
      ~args:
        [ ("fn", Trace.Str cf.f.fname); ("variant", Trace.Str (if spec then "spec" else "plain")) ]
      (fun () -> lower_fexec ~spec ~tier:2 ~stats p c2f)
  in
  (* Superblock shape is static and complete at link time; segment
     coverage samples stream from the lazy chain lowerings instead. *)
  if Trace.enabled () then
    Trace.counter ~cat:"sched" "fused-superblocks"
      [ ("superblocks", Trace.Int stats.sb_count); ("blocks", Trace.Int stats.sb_blocks) ];
  fx

let link_now p c2f ~spec ~tier =
  Mutex.lock p.link_lock;
  (match (tier, spec) with
  | 1, false ->
    if not c2f.t1_plain_linked then begin
      c2f.t1_plain <- lower_fexec ~spec:false ~tier:1 p c2f;
      c2f.t1_plain_linked <- true;
      if not p.tiered then c2f.fexec_plain <- c2f.t1_plain
    end
  | 1, true ->
    if not c2f.t1_spec_linked then begin
      c2f.t1_spec <- lower_fexec ~spec:true ~tier:1 p c2f;
      c2f.t1_spec_linked <- true;
      if not p.tiered then c2f.fexec_spec <- c2f.t1_spec
    end
  | 2, false ->
    if not c2f.t2_plain_linked then begin
      c2f.t2_plain <- link_fused_traced ~spec:false p c2f;
      c2f.t2_plain_linked <- true
    end
  | 2, true ->
    if not c2f.t2_spec_linked then begin
      c2f.t2_spec <- link_fused_traced ~spec:true p c2f;
      c2f.t2_spec_linked <- true
    end
  | 3, false ->
    if not c2f.t3_plain_linked then begin
      c2f.t3_plain <- lower_fexec ~spec:false ~tier:3 p c2f;
      c2f.t3_plain_linked <- true
    end
  | _ -> assert false (* tier 3 has no spec variant *));
  Mutex.unlock p.link_lock

(* The tiered entry dispatcher: bump this ENGINE's entry counter for the
   function and pick the tier — tier 1 until the engine's threshold is
   crossed, the fused tier after, and (plain variant only) the
   register-threaded tier past the engine's [tier3_threshold].  Decisions
   are per-engine (and so deterministic at any --jobs); each tier's body
   is linked lazily in the shared program on the first entry that
   reaches it.  The [tierup-count]/[tier3-promotions] samples mark each
   promotion; they live in the "sched" category next to the other
   lazy-compile traffic.  The spec variant caps at tier 2: drill
   configurations are short-lived, and keeping taint threading out of
   the int-coded loop is what keeps tier-3 dispatch flat. *)
let tiered_dispatch (c2f : cfunc2) ~spec : fexec =
  let id = c2f.c2.id in
  let fname = c2f.c2.f.fname in
  if spec then
    fun t ->
      let c = Array.unsafe_get t.tier_counts id + 1 in
      Array.unsafe_set t.tier_counts id c;
      if c > t.tier_threshold then begin
        if c = t.tier_threshold + 1 && Trace.enabled () then
          Trace.counter ~cat:"sched" "tierup-count"
            [ ("count", Trace.Int 1); ("fn", Trace.Str fname) ];
        c2f.t2_spec t
      end
      else c2f.t1_spec t
  else
    fun t ->
      let c = Array.unsafe_get t.tier_counts id + 1 in
      Array.unsafe_set t.tier_counts id c;
      let t3 = t.tier3_threshold in
      if t3 > 0 && c > t3 then begin
        if c = t3 + 1 && Trace.enabled () then
          Trace.counter ~cat:"sched" "tier3-promotions"
            [ ("count", Trace.Int 1); ("fn", Trace.Str fname) ];
        c2f.t3_plain t
      end
      else if c > t.tier_threshold then begin
        if c = t.tier_threshold + 1 && Trace.enabled () then
          Trace.counter ~cat:"sched" "tierup-count"
            [ ("count", Trace.Int 1); ("fn", Trace.Str fname) ];
        c2f.t2_plain t
      end
      else c2f.t1_plain t

let make_prog (cv : Machine.compiled) ~mem_len ~tiered ~callfuse : prog =
  let c2by_id =
    Array.map
      (fun cf ->
        {
          c2 = cf;
          zeroset = zeroset_of cf;
          fexec_plain = unlinked;
          fexec_spec = unlinked;
          t1_plain = unlinked;
          t1_spec = unlinked;
          t2_plain = unlinked;
          t2_spec = unlinked;
          t3_plain = unlinked;
          t1_plain_linked = false;
          t1_spec_linked = false;
          t2_plain_linked = false;
          t2_spec_linked = false;
          t3_plain_linked = false;
        })
      cv.cby_id
  in
  let pstats =
    {
      fused_seams = Atomic.make 0;
      fused_promoted = Atomic.make 0;
      t3_traces = Atomic.make 0;
      t3_coded = Atomic.make 0;
      t3_insts = Atomic.make 0;
    }
  in
  (* Fusion watches per-engine entry counters, which only exist on
     tiered engines — a baseline program never fuses ([--tierup 0]
     implies [--callfuse 0]). *)
  let callfuse = if tiered then max 0 callfuse else 0 in
  let p = { c2by_id; mem_len; link_lock = Mutex.create (); tiered; callfuse; pstats } in
  Array.iter
    (fun c2f ->
      if not (func_valid c2f.c2) then begin
        (* Out-of-range static register or label index: the unchecked
           closure bodies must never be built for this function.  Only
           hand-built IR that [Validate] rejects gets here; it fails on
           entry instead of lowering. *)
        let err : fexec =
         fun _ ->
          raise (Runtime_error ("invalid static indices in @" ^ c2f.c2.f.fname))
        in
        c2f.fexec_plain <- err;
        c2f.fexec_spec <- err;
        c2f.t1_plain <- err;
        c2f.t1_spec <- err;
        c2f.t2_plain <- err;
        c2f.t2_spec <- err;
        c2f.t3_plain <- err;
        c2f.t1_plain_linked <- true;
        c2f.t1_spec_linked <- true;
        c2f.t2_plain_linked <- true;
        c2f.t2_spec_linked <- true;
        c2f.t3_plain_linked <- true
      end
      else begin
      c2f.t1_plain <-
        (fun t ->
          link_now p c2f ~spec:false ~tier:1;
          c2f.t1_plain t);
      c2f.t1_spec <-
        (fun t ->
          link_now p c2f ~spec:true ~tier:1;
          c2f.t1_spec t);
      c2f.t2_plain <-
        (fun t ->
          link_now p c2f ~spec:false ~tier:2;
          c2f.t2_plain t);
      c2f.t2_spec <-
        (fun t ->
          link_now p c2f ~spec:true ~tier:2;
          c2f.t2_spec t);
      c2f.t3_plain <-
        (fun t ->
          link_now p c2f ~spec:false ~tier:3;
          c2f.t3_plain t);
      if tiered then begin
        c2f.fexec_plain <- tiered_dispatch c2f ~spec:false;
        c2f.fexec_spec <- tiered_dispatch c2f ~spec:true
      end
      else begin
        (* Baseline: the published field starts as the tier-1 trampoline
           and is replaced (under the lock) by the linked body, so the
           post-link call path has no dispatcher at all — exactly the
           PR5 backend, pinned by the --tierup 0 parity leg. *)
        c2f.fexec_plain <-
          (fun t ->
            link_now p c2f ~spec:false ~tier:1;
            c2f.fexec_plain t);
        c2f.fexec_spec <-
          (fun t ->
            link_now p c2f ~spec:true ~tier:1;
            c2f.fexec_spec t)
      end
      end)
    c2by_id;
  p

let compile (cv : Machine.compiled) ~mem_len : prog =
  make_prog cv ~mem_len ~tiered:false ~callfuse:0

let compile_tiered (cv : Machine.compiled) ~mem_len ~callfuse : prog =
  make_prog cv ~mem_len ~tiered:true ~callfuse

(* The backend entry installed into [Machine.t.exec_entry]: builds the
   top-level frame (argument prefix + entry-live zeroing, like any call
   site), then one speculation-variant dispatch per top-level call — the
   closure chain runs variant-pure from there (through the counting
   dispatcher in a tiered program, so top-level entries are counted
   too). *)
let entry (p : prog) : Machine.t -> cfunc -> int list -> int option =
 fun t cf args ->
  let c2 = p.c2by_id.(cf.id) in
  let regs = raw_frame t ~depth:0 ~len:cf.frame_len in
  let params = cf.f.params in
  let rec write i = function
    | v :: rest when i < params ->
      regs.(i) <- v;
      write (i + 1) rest
    | _ -> i
  in
  let n = write 0 args in
  zero_tail c2.zeroset n regs;
  publish_regs t regs;
  t.cur_depth <- 0;
  t.cur_ret_to <- top_id;
  match t.cfg.speculation with
  | None -> c2.fexec_plain t
  | Some _ -> c2.fexec_spec t
