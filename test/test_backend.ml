(* Differential suite for the two execution backends and the compile
   cache.

   The engine's parity contract (engine.mli) says Interp and Compiled are
   bit-exact: identical cycles, counters, traces, memory, speculation
   events and errors for any program and configuration.  The qcheck
   properties here drive random programs through both backends under
   every interesting configuration axis — protections, surcharges,
   rsb_refill, a stateful fwd_override hook, live speculation drills with
   planted injections, tiny fuel budgets and wild indirect calls — and
   compare full observable snapshots.  The golden fingerprints in
   test_measure.ml pin the same contract against the recorded seed. *)

open Pibe_ir
open Pibe_cpu
module Trace = Pibe_trace.Trace

(* ------------------------------------------------------------------ *)
(* Observable snapshot of a run                                        *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  outcomes : (int option, string) result list;
  cycles : int;
  counters : int list;
  trace : int list;
  memory : int list;
  icache : int * int;
  spec_events : Speculation.event list;
}

let counters_list (c : Engine.counters) =
  [
    c.Engine.calls;
    c.Engine.icalls;
    c.Engine.rets;
    c.Engine.insts;
    c.Engine.btb_misses;
    c.Engine.rsb_misses;
    c.Engine.pht_misses;
    c.Engine.stack_bytes;
    c.Engine.peak_stack_bytes;
  ]

(* [mkconfig] builds a fresh config (plus its drill state, if any) per
   run, so stateful hooks and speculation state never leak between the
   two backends under comparison.  [tierup] pins the compiled backend's
   tier-up threshold per engine — the suite's standard workloads make
   only a handful of calls, so exercising the fused tier needs low
   explicit thresholds. *)
let run_with ?tierup ?callfuse ?tier3 ~backend ~mkconfig prog calls =
  let config, spec = mkconfig () in
  let engine = Engine.create ~config ~backend ?tierup ?callfuse ?tier3 prog in
  let outcomes =
    List.map
      (fun (entry, args) ->
        match Engine.call engine entry args with
        | v -> Ok v
        | exception Engine.Runtime_error m -> Error ("runtime: " ^ m)
        | exception Engine.Out_of_fuel -> Error "out-of-fuel")
      calls
  in
  {
    outcomes;
    cycles = Engine.cycles engine;
    counters = counters_list (Engine.counters engine);
    trace = Engine.trace engine;
    memory = Array.to_list (Engine.memory engine);
    icache =
      (Icache.hit_count (Engine.icache engine), Icache.miss_count (Engine.icache engine));
    spec_events = (match spec with None -> [] | Some s -> Speculation.events s);
  }

let agree ?tierup ?callfuse ?tier3 ~mkconfig prog calls =
  run_with ~backend:Engine.Interp ~mkconfig prog calls
  = run_with ?tierup ?callfuse ?tier3 ~backend:Engine.Compiled ~mkconfig prog calls

(* ------------------------------------------------------------------ *)
(* Configuration axes                                                  *)
(* ------------------------------------------------------------------ *)

let base () =
  ({ Engine.default_config with Engine.record_trace = true }, None)

(* Site/function-keyed protections (pure, so both backends resolve the
   same kinds) plus every per-event surcharge and rsb_refill. *)
let hardened () =
  ( {
      Engine.default_config with
      Engine.record_trace = true;
      fwd_protection =
        (fun site ->
          match site.Types.site_id mod 6 with
          | 0 -> Protection.F_none
          | 1 -> Protection.F_retpoline
          | 2 -> Protection.F_lvi
          | 3 -> Protection.F_fineibt
          | 4 -> Protection.F_coarse_cfi
          | _ -> Protection.F_fenced_retpoline);
      bwd_protection =
        (fun name ->
          match Hashtbl.hash name mod 5 with
          | 0 -> Protection.B_none
          | 1 -> Protection.B_lvi
          | 2 -> Protection.B_ret_retpoline
          | 3 -> Protection.B_pac
          | _ -> Protection.B_fenced_ret_retpoline);
      (* pure and site/target-keyed, so both backends see the same CFI
         verdict for the same transient edge *)
      cfi_valid =
        (fun ~site ~target ~protection:_ ->
          (site.Types.site_id + String.length target) mod 3 <> 0);
      extra_call_cycles = 2;
      extra_icall_cycles = 3;
      extra_ret_cycles = 1;
      rsb_refill = true;
    },
    None )

(* Stateful forward-override hook (the JumpSwitches-style comparator):
   the charge depends on call order, so any divergence in execution order
   between backends shows up as a cycle mismatch. *)
let overridden () =
  let n = ref 0 in
  ( {
      Engine.default_config with
      Engine.record_trace = true;
      fwd_override =
        Some
          (fun ~site:_ ~target:_ ->
            incr n;
            !n mod 7);
    },
    None )

(* Live speculation drills with planted injections: poisoned fptr-cell
   loads (LVI) and an armed cross-thread RSB desync (Ret2spec). *)
let drilled () =
  let s = Speculation.create () in
  Speculation.inject_load s ~addr:3 ~value:1;
  Speculation.inject_rsb s ~scenario:Speculation.Cross_thread ~gadget:"f1";
  ( { Engine.default_config with Engine.record_trace = true; speculation = Some s },
    Some s )

(* A forged-PAC RSB desync against PAC-signed returns: the one scenario
   B_pac records, layered on the hardened protection mix so the PAC
   cost/event path is exercised under both backends. *)
let forged () =
  let s = Speculation.create () in
  Speculation.inject_load s ~addr:3 ~value:1;
  Speculation.inject_rsb s ~scenario:Speculation.Forged_pac ~gadget:"f1";
  let config, _ = hardened () in
  ({ config with Engine.speculation = Some s; rsb_refill = false }, Some s)

(* Tiny step budget: both backends must die out-of-fuel at the same
   instruction with the same partial cycles and counters. *)
let starved () =
  ({ Engine.default_config with Engine.record_trace = true; fuel = 37 }, None)

let differential name mkconfig =
  QCheck.Test.make ~count:60 ~name
    QCheck.(make Gen.(0 -- 100_000))
    (fun seed ->
      let prog = Helpers.random_program seed in
      agree ~mkconfig prog (Helpers.standard_calls prog))

(* ------------------------------------------------------------------ *)
(* Tier-2 superblock fusion                                            *)
(* ------------------------------------------------------------------ *)

(* Chain-biased programs at a threshold of 1: the first call runs tier 1,
   every later call the fused tier, so each run compares BOTH tiers
   against the interpreter — including the planted mid-segment faulting
   loads of the generator. *)
let differential_chain name tierup mkconfig =
  QCheck.Test.make ~count:60 ~name
    QCheck.(make Gen.(0 -- 100_000))
    (fun seed ->
      let prog = Helpers.random_chain_program seed in
      agree ~tierup ~mkconfig prog (Helpers.standard_calls prog))

(* Fuel budgets swept per seed around the size of one superblock: both
   backends must die out-of-fuel at the same step even when the budget
   runs dry in the middle of a fused segment or exactly at a chain
   seam. *)
let differential_chain_starved =
  QCheck.Test.make ~count:80 ~name:"superblock out-of-fuel agrees at every seam"
    QCheck.(make Gen.(0 -- 100_000))
    (fun seed ->
      let prog = Helpers.random_chain_program seed in
      let mkconfig () =
        ( {
            Engine.default_config with
            Engine.record_trace = true;
            fuel = 5 + (seed mod 97);
          },
          None )
      in
      agree ~tierup:1 ~mkconfig prog (Helpers.standard_calls prog))

(* The two compiled configurations must also agree with each other at
   any pair of thresholds — tier-up must be invisible, not just
   interp-equivalent. *)
let differential_tier_settings =
  QCheck.Test.make ~count:40 ~name:"tier thresholds mutually bit-exact"
    QCheck.(make Gen.(0 -- 100_000))
    (fun seed ->
      let prog = Helpers.random_chain_program seed in
      let calls = Helpers.standard_calls prog in
      let snap ?(callfuse = 0) ?(tier3 = 0) tierup =
        run_with ~tierup ~callfuse ~tier3 ~backend:Engine.Compiled ~mkconfig:base
          prog calls
      in
      let s0 = snap 0 in
      s0 = snap 1 && s0 = snap 2 && s0 = snap 1_000_000
      && s0 = snap ~callfuse:1 1
      && s0 = snap ~tier3:1 1
      && s0 = snap ~callfuse:1 ~tier3:2 1
      && s0 = snap ~callfuse:3 ~tier3:4 2)

(* ------------------------------------------------------------------ *)
(* Call-seam fusion and tier 3                                         *)
(* ------------------------------------------------------------------ *)

(* Call-chain-biased programs at thresholds of 1: leaf entry counts
   cross the fusion threshold during the first activation, so each run
   compares the unfused, self-promoting and fused call seams against
   the interpreter — including the generator's planted mid-leaf faults
   and deliberately oversized (fusion-rejected) leaves. *)
let differential_callfuse name mkconfig =
  QCheck.Test.make ~count:60 ~name
    QCheck.(make Gen.(0 -- 100_000))
    (fun seed ->
      let prog = Helpers.random_call_program seed in
      agree ~tierup:1 ~callfuse:1 ~mkconfig prog (Helpers.standard_calls prog))

(* Tier 3 at a threshold of 2 over the chain-heavy generator: the first
   calls run tiers 1-2, later calls the register-threaded stream, so
   one run covers every promotion edge (including faults landing inside
   int-coded batches). *)
let differential_tier3 name mkconfig =
  QCheck.Test.make ~count:60 ~name
    QCheck.(make Gen.(0 -- 100_000))
    (fun seed ->
      let prog = Helpers.random_chain_program seed in
      agree ~tierup:1 ~tier3:2 ~mkconfig prog (Helpers.standard_calls prog))

(* All tiers at once on the call-heavy shape. *)
let differential_all_tiers =
  QCheck.Test.make ~count:60 ~name:"callfuse+tier3 chains agree"
    QCheck.(make Gen.(0 -- 100_000))
    (fun seed ->
      let prog = Helpers.random_call_program seed in
      agree ~tierup:1 ~callfuse:1 ~tier3:2 ~mkconfig:base prog
        (Helpers.standard_calls prog))

(* Fuel budgets swept around the size of one fused call span: both
   backends must die out-of-fuel at the same step even when the budget
   runs dry exactly at a fused call seam (the pre-charged call + body +
   return batch must unwind to the interpreter's partial state). *)
let differential_callfuse_starved =
  QCheck.Test.make ~count:80 ~name:"out-of-fuel at call seams agrees"
    QCheck.(make Gen.(0 -- 100_000))
    (fun seed ->
      let prog = Helpers.random_call_program seed in
      let mkconfig () =
        ( {
            Engine.default_config with
            Engine.record_trace = true;
            fuel = 5 + (seed mod 97);
          },
          None )
      in
      agree ~tierup:1 ~callfuse:1 ~tier3:3 ~mkconfig prog
        (Helpers.standard_calls prog))

(* A deterministic fault in the middle of a fused run: the load's address
   register goes out of bounds only for the poisoned argument, after the
   chain is already promoted — the rolled-back batch accounting must
   leave exactly the interpreter's partial state. *)
let test_fault_mid_superblock () =
  let open Types in
  let b = Builder.create ~name:"f0" ~params:1 in
  let blocks = Array.init 4 (fun i -> if i = 0 then 0 else Builder.new_block b) in
  let addr = Builder.reg b in
  Array.iteri
    (fun i label ->
      Builder.switch_to b label;
      let r1 = Builder.reg b in
      Builder.assign b r1 (Binop (Add, Reg 0, Imm (i * 3)));
      if i = 2 then begin
        (* in-bounds for arg 0, far out of bounds for arg 9999 *)
        Builder.assign b addr (Binop (Mul, Reg 0, Imm 7));
        let r2 = Builder.reg b in
        Builder.assign b r2 (Load (Reg addr));
        Builder.observe b (Reg r2)
      end;
      Builder.store b ~addr:(Imm (16 + i)) ~value:(Reg r1);
      if i = Array.length blocks - 1 then Builder.ret b (Some (Reg r1))
      else Builder.jmp b blocks.(i + 1))
    blocks;
  let prog =
    Program.add_func
      (Program.with_globals_size Program.empty Helpers.mem_cells)
      (Builder.finish b ())
  in
  let calls =
    [ ("f0", [ 1 ]); ("f0", [ 2 ]); ("f0", [ 3 ]); ("f0", [ 9999 ]); ("f0", [ 4 ]) ]
  in
  Alcotest.(check bool)
    "fault mid-superblock rolls back bit-exactly" true
    (agree ~tierup:1 ~mkconfig:base prog calls
    && agree ~tierup:2 ~mkconfig:base prog calls)

(* A fused (caller, callee) pair whose leaf faults only for a poisoned
   argument, long after the seam is promoted: the batched call + body +
   return accounting must roll back to exactly the interpreter's partial
   state (call counter bumped, edge recorded, callee frame live). *)
let fused_call_prog () =
  let open Types in
  let leaf =
    let b = Builder.create ~name:"leaf" ~params:1 in
    let r1 = Builder.reg b in
    Builder.assign b r1 (Binop (Add, Reg 0, Imm 3));
    let addr = Builder.reg b in
    (* in-bounds for small args, far out of bounds for arg 9999 *)
    Builder.assign b addr (Binop (Mul, Reg 0, Imm 7));
    let r2 = Builder.reg b in
    Builder.assign b r2 (Load (Reg addr));
    Builder.store b ~addr:(Imm 20) ~value:(Reg r2);
    Builder.ret b (Some (Reg r1));
    Builder.finish b ()
  in
  let prog =
    Program.add_func (Program.with_globals_size Program.empty Helpers.mem_cells) leaf
  in
  let prog = ref prog in
  let main =
    let b = Builder.create ~name:"f0" ~params:1 in
    let r0 = Builder.reg b in
    Builder.assign b r0 (Binop (Add, Reg 0, Imm 1));
    (* a straight-line compute stretch so the trace qualifies for the
       tier-3 shape gate even with its two call seams — the fused seams
       then run inside the int-coded stream (the op_cx path) *)
    let acc = ref r0 in
    for k = 1 to 9 do
      let r = Builder.reg b in
      Builder.assign b r (Binop (Xor, Reg !acc, Imm (k * 5)));
      acc := r
    done;
    Builder.assign b r0 (Binop (Add, Reg !acc, Imm 0));
    let p, site = Program.fresh_site !prog in
    prog := p;
    let r1 = Builder.reg b in
    Builder.call b ~dst:r1 site "leaf" [ Reg 0 ];
    let p, site = Program.fresh_site !prog in
    prog := p;
    let r2 = Builder.reg b in
    Builder.call b ~dst:r2 site "leaf" [ Reg r1 ];
    Builder.observe b (Reg r2);
    Builder.ret b (Some (Reg r2));
    Builder.finish b ()
  in
  Program.add_func !prog main

let test_fault_mid_fused_call () =
  let prog = fused_call_prog () in
  let calls =
    [ ("f0", [ 1 ]); ("f0", [ 2 ]); ("f0", [ 3 ]); ("f0", [ 9999 ]); ("f0", [ 4 ]) ]
  in
  Alcotest.(check bool)
    "fault mid-fused-call rolls back bit-exactly" true
    (agree ~tierup:1 ~callfuse:1 ~mkconfig:base prog calls
    && agree ~tierup:1 ~callfuse:1 ~tier3:2 ~mkconfig:base prog calls
    && agree ~tierup:1 ~callfuse:2 ~mkconfig:hardened prog calls)

(* Register frames are sized to the function that runs in them and grow
   in place of the pooled frame when a bigger one enters the same depth.
   Here a 300-register function and small leaves take turns at depths 1
   and 2, through direct and indirect calls, so frames are allocated
   small, grown, and then reused by small functions over a big one's
   stale contents.  Every small function reads a register it never
   writes first (entry-live, must read 0) and then dirties it.  [wide]
   declares more parameters than registers, which [Validate] rejects but
   the engines still run: its argument prefix must fit its frame. *)
let frame_growth_prog () =
  let open Types in
  let prog = ref (Program.with_globals_size Program.empty Helpers.mem_cells) in
  let site () =
    let p, s = Program.fresh_site !prog in
    prog := p;
    s
  in
  let add f = prog := Program.add_func !prog f in
  let leaf name k =
    let b = Builder.create ~name ~params:1 in
    let stale = Builder.reg b in
    let r = Builder.reg b in
    Builder.assign b r (Binop (Add, Reg 0, Reg stale));
    Builder.assign b r (Binop (Add, Reg r, Imm k));
    Builder.assign b stale (Const 991);
    Builder.observe b (Reg r);
    Builder.ret b (Some (Reg r));
    Builder.finish b ()
  in
  add (leaf "small" 1);
  add (leaf "tiny" 2);
  let big =
    let b = Builder.create ~name:"big" ~params:2 in
    let regs = Array.init 300 (fun _ -> Builder.reg b) in
    (* the last register is read before any write: entry-live *)
    let acc = Builder.reg b in
    Builder.assign b acc (Binop (Add, Reg 0, Reg regs.(299)));
    Array.iteri
      (fun i r -> Builder.assign b r (Binop (Xor, Reg (if i = 0 then 1 else regs.(i - 1)), Imm (i + 7))))
      regs;
    Builder.assign b acc (Binop (Add, Reg acc, Reg regs.(298)));
    Builder.store b ~addr:(Imm 12) ~value:(Reg acc);
    Builder.ret b (Some (Reg acc));
    Builder.finish b ()
  in
  add big;
  let wide =
    let b = Builder.create ~name:"wide" ~params:1 in
    Builder.assign b 0 (Binop (Add, Reg 0, Imm 5));
    Builder.observe b (Reg 0);
    Builder.ret b (Some (Reg 0));
    { (Builder.finish b ()) with params = 3 }
  in
  add wide;
  let p, fp_small = Program.add_fptr !prog "small" in
  let p, fp_big = Program.add_fptr p "big" in
  prog := p;
  let mid =
    let b = Builder.create ~name:"mid" ~params:1 in
    let r = Builder.reg b in
    Builder.call b ~dst:r (site ()) "wide" [ Reg 0; Imm 1; Imm 2 ];
    Builder.call b ~dst:r (site ()) "tiny" [ Reg r ];
    Builder.call b ~dst:r (site ()) "big" [ Reg r; Imm 3 ];
    Builder.call b ~dst:r (site ()) "small" [ Reg r ];
    let fp = Builder.reg b in
    Builder.assign b fp (Binop (And, Reg 0, Imm 1));
    Builder.assign b fp (Binop (Mul, Reg fp, Imm (fp_big - fp_small)));
    Builder.assign b fp (Binop (Add, Reg fp, Imm fp_small));
    Builder.icall b ~dst:r (site ()) [ Reg r; Imm 4 ] ~fptr:(Reg fp);
    Builder.call b ~dst:r (site ()) "tiny" [ Reg r ];
    Builder.ret b (Some (Reg r));
    Builder.finish b ()
  in
  add mid;
  let f0 =
    let b = Builder.create ~name:"f0" ~params:1 in
    let r = Builder.reg b in
    Builder.call b ~dst:r (site ()) "small" [ Reg 0 ];
    Builder.call b ~dst:r (site ()) "big" [ Reg r; Reg 0 ];
    Builder.call b ~dst:r (site ()) "tiny" [ Reg r ];
    Builder.call b ~dst:r (site ()) "mid" [ Reg r ];
    Builder.call b ~dst:r (site ()) "small" [ Reg r ];
    Builder.call b ~dst:r (site ()) "wide" [ Reg r; Reg 0; Imm 9 ];
    Builder.observe b (Reg r);
    Builder.ret b (Some (Reg r));
    Builder.finish b ()
  in
  add f0;
  !prog

let test_frames_grow_per_depth () =
  let prog = frame_growth_prog () in
  let calls = List.init 6 (fun i -> ("f0", [ i ])) in
  let ref_run = run_with ~backend:Engine.Interp ~mkconfig:base prog calls in
  Alcotest.(check bool) "every call returns" true
    (List.for_all Result.is_ok ref_run.outcomes);
  List.iter
    (fun (name, mkconfig) ->
      Alcotest.(check bool)
        (name ^ ": interp = compiled at every tier")
        true
        (agree ~tierup:0 ~mkconfig prog calls
        && agree ~mkconfig prog calls
        && agree ~tierup:1 ~callfuse:1 ~tier3:2 ~mkconfig prog calls))
    [ ("plain", base); ("speculative", drilled) ]

(* Every fuel budget from empty to past the whole workload: wherever the
   budget dies — before the seam, on the pre-charged call step, inside
   the fused body, on the return — both backends stop identically. *)
let test_fuel_sweep_at_call_seam () =
  let prog = fused_call_prog () in
  let calls = [ ("f0", [ 1 ]); ("f0", [ 2 ]); ("f0", [ 3 ]); ("f0", [ 4 ]) ] in
  for fuel = 1 to 80 do
    let mkconfig () =
      ({ Engine.default_config with Engine.record_trace = true; fuel }, None)
    in
    Alcotest.(check bool)
      (Printf.sprintf "fuel %d dies at the same step" fuel)
      true
      (agree ~tierup:1 ~callfuse:1 ~tier3:2 ~mkconfig prog calls)
  done

(* Accumulator-run superinstructions: tier 3 collapses consecutive
   [d = op d rhs] binops into one [op_acc] whose live value rides in a
   host register.  Cover every binop in both operand shapes, an
   odd-length run, the run-breaking aliases ([x = x + x] reads the
   operand from the frame, so it must NOT join a run), comparisons that
   collapse the accumulator to 0/1 mid-run, and register shift amounts
   past the mask — all bit-exact against the interpreter. *)
let acc_run_prog () =
  let open Types in
  let b = Builder.create ~name:"f0" ~params:1 in
  let x = Builder.reg b and y = Builder.reg b in
  Builder.assign b x (Move (Reg 0));
  Builder.assign b y (Binop (Mul, Reg 0, Imm 3));
  (* immediate-shape run over every op (Lt/Eq mid-run collapse to 0/1) *)
  List.iter
    (fun (op, i) -> Builder.assign b x (Binop (op, Reg x, Imm i)))
    [ (Add, 5); (Sub, 3); (Mul, 7); (Xor, 9); (Or, 33); (And, 255);
      (Shl, 3); (Shr, 2); (Lt, 1000); (Eq, 1); (Add, 41); (Mul, 13) ];
  (* operand aliasing the accumulator breaks the run *)
  Builder.assign b x (Binop (Add, Reg x, Reg x));
  (* register-shape run, including shift amounts >= 32 in [y] *)
  List.iter
    (fun op -> Builder.assign b x (Binop (op, Reg x, Reg y)))
    [ Add; Sub; Xor; And; Or; Shl; Shr; Mul; Lt; Eq ];
  Builder.observe b (Reg x);
  (* odd-length tail run exercises the single-item epilogue *)
  Builder.assign b x (Binop (Add, Reg x, Imm 2));
  Builder.assign b x (Binop (Xor, Reg x, Imm 5));
  Builder.assign b x (Binop (Or, Reg x, Reg y));
  Builder.ret b (Some (Reg x));
  Program.add_func (Program.with_globals_size Program.empty Helpers.mem_cells)
    (Builder.finish b ())

let test_acc_runs () =
  let prog = acc_run_prog () in
  let calls =
    List.map
      (fun v -> ("f0", [ v ]))
      [ 0; 1; 5; 17; 40; 255; 100000; max_int / 3; 0; 7 ]
  in
  Alcotest.(check bool)
    "accumulator runs agree bit-exactly" true
    (agree ~tierup:1 ~tier3:2 ~mkconfig:base prog calls
    && agree ~tierup:2 ~callfuse:1 ~tier3:3 ~mkconfig:hardened prog calls)

(* A self-recursive callee can never fuse (its body contains a call, so
   the leaf gate rejects it): the seam count must stay zero while the
   runs still agree with the interpreter. *)
let test_recursive_callee_not_fused () =
  let open Types in
  let prog = ref (Program.with_globals_size Program.empty Helpers.mem_cells) in
  let rec_func =
    let b = Builder.create ~name:"rec" ~params:1 in
    let base_b = Builder.new_block b in
    let rec_b = Builder.new_block b in
    let cond = Builder.reg b in
    Builder.assign b cond (Binop (Lt, Reg 0, Imm 1));
    Builder.br b (Reg cond) base_b rec_b;
    Builder.switch_to b base_b;
    Builder.ret b (Some (Imm 0));
    Builder.switch_to b rec_b;
    let n1 = Builder.reg b in
    Builder.assign b n1 (Binop (Sub, Reg 0, Imm 1));
    let p, site = Program.fresh_site !prog in
    prog := p;
    let r = Builder.reg b in
    Builder.call b ~dst:r site "rec" [ Reg n1 ];
    let r2 = Builder.reg b in
    Builder.assign b r2 (Binop (Add, Reg r, Imm 1));
    Builder.ret b (Some (Reg r2));
    Builder.finish b ()
  in
  prog := Program.add_func !prog rec_func;
  let main =
    let b = Builder.create ~name:"f0" ~params:1 in
    let p, site = Program.fresh_site !prog in
    prog := p;
    let r = Builder.reg b in
    Builder.call b ~dst:r site "rec" [ Reg 0 ];
    Builder.ret b (Some (Reg r));
    Builder.finish b ()
  in
  let prog = Program.add_func !prog main in
  let calls = List.init 6 (fun i -> ("f0", [ i ])) in
  Alcotest.(check bool)
    "recursive callee agrees unfused" true
    (agree ~tierup:1 ~callfuse:1 ~tier3:2 ~mkconfig:base prog calls);
  let engine = Engine.create ~tierup:1 ~callfuse:1 prog in
  List.iter (fun (entry, args) -> ignore (Engine.call engine entry args)) calls;
  Alcotest.(check int) "no seam ever fuses a recursive callee" 0
    (List.assoc "call-fused-seams" (Engine.backend_stats engine))

(* Tier-up decisions are per-engine counters, so they cannot depend on
   how many other engines run concurrently: N domains each driving a
   private engine over the same workload must reach identical snapshots,
   entry counts and promotion decisions as a sequential engine. *)
let test_tierup_deterministic_across_jobs () =
  let prog = Helpers.random_chain_program 321_123 in
  let call_prog = Helpers.random_call_program 321_124 in
  let calls = Helpers.standard_calls prog in
  let call_calls = Helpers.standard_calls call_prog in
  let profile () =
    let snap = run_with ~tierup:2 ~backend:Engine.Compiled ~mkconfig:base prog calls in
    (* all three tiers plus fusion live at once on the call-heavy shape *)
    let snap_fused =
      run_with ~tierup:1 ~callfuse:1 ~tier3:2 ~backend:Engine.Compiled ~mkconfig:base
        call_prog call_calls
    in
    let engine = Engine.create ~tierup:2 ~tier3:3 prog in
    List.iter
      (fun (entry, args) ->
        match Engine.call engine entry args with
        | _ -> ()
        | exception (Engine.Runtime_error _ | Engine.Out_of_fuel) -> ())
      calls;
    let counts =
      List.map
        (fun name ->
          ( name,
            Engine.entry_count engine name,
            Engine.promoted engine name,
            Engine.tier3_promoted engine name ))
        (Program.layout_order prog)
    in
    (snap, snap_fused, counts)
  in
  let sequential = profile () in
  let domains = List.init 4 (fun _ -> Domain.spawn profile) in
  List.iteri
    (fun i d ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d matches sequential tier-up profile" i)
        true
        (Domain.join d = sequential))
    domains

(* Wild indirect calls: corrupt the fptr-index cells so icalls resolve
   out of table (or to a huge index) — both backends must raise the same
   Runtime_error at the same point, with identical partial state. *)
let differential_wild =
  QCheck.Test.make ~count:60 ~name:"wild icalls agree"
    QCheck.(make Gen.(0 -- 100_000))
    (fun seed ->
      let prog = Helpers.random_program seed in
      let prog = Program.set_global prog ~addr:0 ~value:997 in
      let prog = Program.set_global prog ~addr:1 ~value:(-3) in
      agree ~mkconfig:base prog (Helpers.standard_calls prog))

(* ------------------------------------------------------------------ *)
(* Attack drills on the generated kernel                               *)
(* ------------------------------------------------------------------ *)

let drill_outcomes backend =
  let info = Helpers.kernel () in
  let spec = Speculation.create () in
  let config =
    { Engine.default_config with Engine.speculation = Some spec; rsb_refill = true }
  in
  let engine = Engine.create ~config ~backend info.Pibe_kernel.Gen.prog in
  Attack.run_all engine ~victim_site:info.Pibe_kernel.Gen.victim_icall_site
    ~poisoned_addr:info.Pibe_kernel.Gen.victim_ops_addr
    ~gadget_fptr:info.Pibe_kernel.Gen.gadget_fptr ~gadget:info.Pibe_kernel.Gen.gadget
    ~valid_gadget:info.Pibe_kernel.Gen.valid_gadget ~entry:info.Pibe_kernel.Gen.entry
    ~args:[ Pibe_kernel.Gen.nr info "read"; 0; 5 ]

let test_attack_drills () =
  let a = drill_outcomes Engine.Interp in
  let b = drill_outcomes Engine.Compiled in
  Alcotest.(check bool) "attack drill outcomes identical" true (a = b);
  Alcotest.(check bool)
    "unprotected kernel is attackable" true
    (List.exists (fun (_, o) -> o.Attack.gadget_reached) a)

(* ------------------------------------------------------------------ *)
(* Compile cache                                                       *)
(* ------------------------------------------------------------------ *)

(* Two interleaved programs must each compile exactly once: the LRU keeps
   both live across the alternation (the online dual replay's deployed /
   pristine pattern). *)
let test_interleaved_compile_once () =
  let p1 = Helpers.random_program 424_201 in
  let p2 = Helpers.random_program 424_202 in
  let h0, m0 = Engine.compile_cache_stats () in
  for _ = 1 to 4 do
    ignore (Engine.create p1);
    ignore (Engine.create p2)
  done;
  let h1, m1 = Engine.compile_cache_stats () in
  Alcotest.(check int) "each program compiled exactly once" 2 (m1 - m0);
  Alcotest.(check int) "remaining creates were cache hits" 6 (h1 - h0)

(* The compile cache holds programs weakly: a program nothing else
   references is collected although an engine was compiled for it, and
   a live program still hits after a full collection. *)
let test_cache_does_not_retain_programs () =
  let w = Weak.create 1 in
  let compile_and_drop () =
    let p = Helpers.random_program 424_203 in
    ignore (Engine.create p);
    Weak.set w 0 (Some p)
  in
  compile_and_drop ();
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "dropped program collected" false (Weak.check w 0);
  let live = Helpers.random_program 424_204 in
  ignore (Engine.create live);
  Gc.full_major ();
  let h0, m0 = Engine.compile_cache_stats () in
  ignore (Engine.create live);
  let h1, m1 = Engine.compile_cache_stats () in
  Alcotest.(check (pair int int)) "live program still hits" (1, 0) (h1 - h0, m1 - m0)

let test_trace_compile_events () =
  let p = Helpers.random_program 777_001 in
  Trace.start ();
  ignore (Engine.create p);
  ignore (Engine.create p);
  let events = Trace.stop () in
  let sched name ph =
    List.exists
      (fun (e : Trace.event) ->
        String.equal e.Trace.cat "sched" && String.equal e.Trace.name name
        && e.Trace.ph = ph)
      events
  in
  Alcotest.(check bool) "engine:compile span opened" true
    (sched "engine:compile" Trace.Begin);
  Alcotest.(check bool) "engine:compile span closed" true
    (sched "engine:compile" Trace.End);
  Alcotest.(check bool) "compile-cache-miss counter" true
    (sched "compile-cache-miss" Trace.Counter);
  Alcotest.(check bool) "compile-cache-hit counter" true
    (sched "compile-cache-hit" Trace.Counter)

(* The cache is keyed on (physical program x tier x speculation
   variant): interleaved creates at two tier settings must each compile
   once — a tiered recompile can never evict (or be served by) the
   baseline entry. *)
let test_lru_tier_keying () =
  let p = Helpers.random_chain_program 424_203 in
  let h0, m0 = Engine.compile_cache_stats () in
  for _ = 1 to 4 do
    ignore (Engine.create ~tierup:0 p);
    ignore (Engine.create ~tierup:8 p)
  done;
  let h1, m1 = Engine.compile_cache_stats () in
  Alcotest.(check int) "one compile per tier setting" 2 (m1 - m0);
  Alcotest.(check int) "remaining creates were cache hits" 6 (h1 - h0);
  (* different non-zero thresholds share the tiered closure program:
     the threshold lives in the engine, not the compiled artifact *)
  let h2, m2 = Engine.compile_cache_stats () in
  ignore (Engine.create ~tierup:50 p);
  let h3, m3 = Engine.compile_cache_stats () in
  Alcotest.(check int) "tiered entry shared across thresholds" 0 (m3 - m2);
  Alcotest.(check int) "threshold change is a cache hit" 1 (h3 - h2);
  (* the tier-3 threshold also lives in the engine, not the artifact *)
  let _, m4 = Engine.compile_cache_stats () in
  ignore (Engine.create ~tierup:8 ~tier3:7 p);
  let _, m5 = Engine.compile_cache_stats () in
  Alcotest.(check int) "tier3 threshold change is a cache hit" 0 (m5 - m4);
  (* the callfuse threshold is baked into the lowered closures, so a
     different setting is a different cache entry *)
  let _, m6 = Engine.compile_cache_stats () in
  ignore (Engine.create ~tierup:8 ~callfuse:1 p);
  ignore (Engine.create ~tierup:8 ~callfuse:1 p);
  let _, m7 = Engine.compile_cache_stats () in
  Alcotest.(check int) "callfuse setting keys its own entry" 1 (m7 - m6)

(* Tier-up observability: promotion emits an engine:tierup span around
   the fused lowering, a tierup-count sample at the crossing, and
   fused-superblocks / segment-coverage counters (all "sched" category,
   stripped from canonical traces, rendered by every sink). *)
let test_trace_tierup_events () =
  let p = Helpers.random_chain_program 777_002 in
  Trace.start ();
  let engine = Engine.create ~tierup:1 p in
  List.iter
    (fun (entry, args) -> ignore (Engine.call engine entry args))
    (Helpers.standard_calls p);
  let events = Trace.stop () in
  let sched name ph =
    List.exists
      (fun (e : Trace.event) ->
        String.equal e.Trace.cat "sched" && String.equal e.Trace.name name
        && e.Trace.ph = ph)
      events
  in
  Alcotest.(check bool) "engine:tierup span opened" true
    (sched "engine:tierup" Trace.Begin);
  Alcotest.(check bool) "engine:tierup span closed" true
    (sched "engine:tierup" Trace.End);
  Alcotest.(check bool) "tierup-count counter" true
    (sched "tierup-count" Trace.Counter);
  Alcotest.(check bool) "fused-superblocks counter" true
    (sched "fused-superblocks" Trace.Counter);
  Alcotest.(check bool) "segment-coverage counter" true
    (sched "segment-coverage" Trace.Counter)

(* Call-seam fusion and tier-3 observability: fusing a seam emits an
   engine:callfuse span and a call-fused-seams counter; tier-3 lowering
   emits an engine:tier3 span, a tier3-promotions sample at the crossing and
   a tier3-inst-coverage counter (all "sched" category). *)
let test_trace_callfuse_tier3_events () =
  let p = fused_call_prog () in
  Trace.start ();
  let engine = Engine.create ~tierup:1 ~callfuse:1 ~tier3:2 p in
  for i = 1 to 6 do
    ignore (Engine.call engine "f0" [ i ])
  done;
  Engine.trace_counters ~name:"probe" engine;
  let events = Trace.stop () in
  let sched name ph =
    List.exists
      (fun (e : Trace.event) ->
        String.equal e.Trace.cat "sched" && String.equal e.Trace.name name
        && e.Trace.ph = ph)
      events
  in
  Alcotest.(check bool) "engine:callfuse span opened" true
    (sched "engine:callfuse" Trace.Begin);
  Alcotest.(check bool) "engine:callfuse span closed" true
    (sched "engine:callfuse" Trace.End);
  Alcotest.(check bool) "call-fused-seams counter" true
    (sched "call-fused-seams" Trace.Counter);
  Alcotest.(check bool) "engine:tier3 span opened" true
    (sched "engine:tier3" Trace.Begin);
  Alcotest.(check bool) "engine:tier3 span closed" true
    (sched "engine:tier3" Trace.End);
  Alcotest.(check bool) "tier3-promotions counter" true (sched "tier3-promotions" Trace.Counter);
  Alcotest.(check bool) "tier3-inst-coverage counter" true
    (sched "tier3-inst-coverage" Trace.Counter);
  Alcotest.(check bool) "lowering stats sample" true
    (sched "probe:lowering" Trace.Counter)

(* The tier-up profile accessors: per-engine entry counts and promotion
   state, and their off states on interp / --tierup 0 engines. *)
let test_tierup_accessors () =
  let p = Helpers.random_chain_program 555_001 in
  let tiered = Engine.create ~tierup:2 p in
  let baseline = Engine.create ~tierup:0 p in
  let interp = Engine.create ~backend:Engine.Interp p in
  List.iter
    (fun (entry, args) ->
      ignore (Engine.call tiered entry args);
      ignore (Engine.call baseline entry args);
      ignore (Engine.call interp entry args))
    (Helpers.standard_calls p);
  Alcotest.(check int) "threshold visible" 2 (Engine.tierup_threshold tiered);
  Alcotest.(check int) "tierup 0 means off" 0 (Engine.tierup_threshold baseline);
  Alcotest.(check int) "interp never counts" 0 (Engine.entry_count interp "f0");
  Alcotest.(check int) "five top-level entries counted" 5
    (Engine.entry_count tiered "f0");
  Alcotest.(check bool) "promoted past threshold" true (Engine.promoted tiered "f0");
  Alcotest.(check bool) "baseline never promotes" false
    (Engine.promoted baseline "f0");
  Alcotest.(check int) "unknown functions count zero" 0
    (Engine.entry_count tiered "nosuch");
  (* the new-tier accessors and their off states *)
  let fused = Engine.create ~tierup:1 ~callfuse:1 ~tier3:3 p in
  List.iter
    (fun (entry, args) -> ignore (Engine.call fused entry args))
    (Helpers.standard_calls p);
  Alcotest.(check int) "tier3 threshold visible" 3 (Engine.tier3_threshold fused);
  Alcotest.(check int) "callfuse threshold visible" 1 (Engine.callfuse_threshold fused);
  Alcotest.(check bool) "tier3-promoted past threshold" true
    (Engine.tier3_promoted fused "f0");
  Alcotest.(check bool) "tier3 off by tierup 0" true
    (Engine.tier3_threshold baseline = 0 && Engine.callfuse_threshold baseline = 0);
  Alcotest.(check bool) "tiered default engine reports defaults" true
    (Engine.tier3_threshold tiered = Engine.default_tier3 ()
    && Engine.callfuse_threshold tiered = Engine.default_callfuse ());
  Alcotest.(check bool) "interp never tier3-promotes" false
    (Engine.tier3_promoted interp "f0");
  Alcotest.(check bool) "interp backend stats empty" true
    (Engine.backend_stats interp = []);
  Alcotest.(check bool) "compiled backend stats populated" true
    (List.mem_assoc "call-fused-seams" (Engine.backend_stats fused)
    && List.mem_assoc "tier3-traces" (Engine.backend_stats fused))

(* ------------------------------------------------------------------ *)
(* Backend selection plumbing                                          *)
(* ------------------------------------------------------------------ *)

let test_backend_selection () =
  let p = Helpers.random_program 9_001 in
  let i = Engine.create ~backend:Engine.Interp p in
  let c = Engine.create ~backend:Engine.Compiled p in
  Alcotest.(check bool) "explicit interp" true (Engine.backend i = Engine.Interp);
  Alcotest.(check bool) "explicit compiled" true (Engine.backend c = Engine.Compiled);
  Alcotest.(check bool) "default is compiled" true
    (Engine.default_backend () = Engine.Compiled);
  List.iter
    (fun b ->
      Alcotest.(check bool) "name round-trips" true
        (Engine.backend_of_string (Engine.backend_to_string b) = Some b))
    [ Engine.Interp; Engine.Compiled ];
  Alcotest.(check bool) "unknown name rejected" true
    (Engine.backend_of_string "threaded" = None)

let suite =
  [
    Helpers.qcheck_to_alcotest (differential "plain runs agree" base);
    Helpers.qcheck_to_alcotest (differential "hardened+rsb_refill runs agree" hardened);
    Helpers.qcheck_to_alcotest (differential "stateful fwd_override agrees" overridden);
    Helpers.qcheck_to_alcotest (differential "speculation drills agree" drilled);
    Helpers.qcheck_to_alcotest (differential "forged-PAC drills agree" forged);
    Helpers.qcheck_to_alcotest (differential "out-of-fuel agrees" starved);
    Helpers.qcheck_to_alcotest differential_wild;
    Helpers.qcheck_to_alcotest
      (differential_chain "superblock chains agree (tierup 1)" 1 base);
    Helpers.qcheck_to_alcotest
      (differential_chain "superblock chains agree hardened (tierup 1)" 1 hardened);
    Helpers.qcheck_to_alcotest
      (differential_chain "superblock chains agree drilled (tierup 1)" 1 drilled);
    Helpers.qcheck_to_alcotest
      (differential_chain "superblock chains agree (tierup 2)" 2 base);
    Helpers.qcheck_to_alcotest differential_chain_starved;
    Helpers.qcheck_to_alcotest differential_tier_settings;
    Helpers.qcheck_to_alcotest
      (differential_callfuse "call-seam fusion agrees" base);
    Helpers.qcheck_to_alcotest
      (differential_callfuse "call-seam fusion agrees hardened" hardened);
    Helpers.qcheck_to_alcotest
      (differential_callfuse "call-seam fusion agrees drilled" drilled);
    Helpers.qcheck_to_alcotest (differential_tier3 "tier3 chains agree" base);
    Helpers.qcheck_to_alcotest
      (differential_tier3 "tier3 chains agree hardened" hardened);
    Helpers.qcheck_to_alcotest differential_all_tiers;
    Helpers.qcheck_to_alcotest differential_callfuse_starved;
    Alcotest.test_case "fault mid-superblock rolls back" `Quick
      test_fault_mid_superblock;
    Alcotest.test_case "fault mid-fused-call rolls back" `Quick
      test_fault_mid_fused_call;
    Alcotest.test_case "fuel sweep at call seams" `Quick
      test_fuel_sweep_at_call_seam;
    Alcotest.test_case "frames grow per depth, bit-exact" `Quick
      test_frames_grow_per_depth;
    Alcotest.test_case "accumulator runs bit-exact" `Quick test_acc_runs;
    Alcotest.test_case "recursive callee never fuses" `Quick
      test_recursive_callee_not_fused;
    Alcotest.test_case "tier-up deterministic across domains" `Quick
      test_tierup_deterministic_across_jobs;
    Alcotest.test_case "kernel attack drills agree" `Quick test_attack_drills;
    Alcotest.test_case "interleaved programs compile once" `Quick
      test_interleaved_compile_once;
    Alcotest.test_case "compile cache does not retain programs" `Quick
      test_cache_does_not_retain_programs;
    Alcotest.test_case "compile cache keyed per tier" `Quick test_lru_tier_keying;
    Alcotest.test_case "compile spans and cache counters traced" `Quick
      test_trace_compile_events;
    Alcotest.test_case "tierup spans and counters traced" `Quick
      test_trace_tierup_events;
    Alcotest.test_case "callfuse and tier3 spans traced" `Quick
      test_trace_callfuse_tier3_events;
    Alcotest.test_case "tier-up profile accessors" `Quick test_tierup_accessors;
    Alcotest.test_case "backend selection and names" `Quick test_backend_selection;
  ]
