(** The pipeline driver: runs a pass list over a program + profile with
    built-in per-pass instrumentation, then materializes the hardened
    image from the accumulated defense requests.

    For every pass the manager records wall-clock time and an IR snapshot
    delta (functions, blocks, instructions, code bytes, remaining indirect
    forward edges, remaining returns, remaining jump tables); the snapshot
    is re-measured only when a pass returns a different program.  With
    [~verify:true] the IR validator runs between every pass (and on the
    final image); an optional [~check] hook — e.g. differential
    interpretation on a smoke workload — also runs after every pass.

    When {!Pibe_trace.Trace} collection is on, a run additionally emits a
    ["pm"]-category span tree — [pm:run] around the whole pipeline, one
    [pass:<elem>] span per pass, [pm:harden] around image
    materialization — with [ir-delta] counters (IR deltas plus remaining
    indirect/return/jump-table sites), per-pass [pass-detail] counters
    (sites promoted / inlined / folded), and a final [hardened] counter
    (sites protected, image bytes).  All values are deterministic; with
    collection off the instrumentation is a no-op. *)

open Pibe_ir

type snapshot = {
  funcs : int;
  blocks : int;
  insts : int;  (** terminators included *)
  code_bytes : int;  (** pre-thunk text bytes (layout model) *)
  icalls : int;  (** remaining promotable indirect forward edges *)
  rets : int;  (** remaining backward edges *)
  jump_tables : int;
}

val snapshot : Program.t -> snapshot

type pass_stats = {
  pass : string;  (** canonical spec element, e.g. ["icp(budget=99.999)"] *)
  wall_s : float;
  before : snapshot;
  after : snapshot;
  detail : Pass.detail;
}

type result = {
  image : Pibe_harden.Pass.image;
  profile : Pibe_profile.Profile.t;
      (** the pipeline's own copy after every pass ran (post-ICP: promoted
          sites are direct now) *)
  provenance : Pibe_profile.Provenance.t;
      (** inline/promotion tree recorded by the optimization passes;
          shipped with the image for optimized-image profile lifting *)
  passes : pass_stats list;  (** in execution order *)
  wall_s : float;  (** whole run, final hardening included *)
}

val run :
  ?verify:bool ->
  ?check:(Program.t -> unit) ->
  Program.t ->
  Pibe_profile.Profile.t ->
  Pass.t list ->
  result
(** The input profile is copied, never mutated.  [verify] defaults to
    false: release pipeline runs skip validation; tests and [--verify]
    CLI runs turn it on.

    {b Prefix memo.}  The pass list splits after the last pass that is
    not {!Pass.t.request_only}: the {e prefix} (ICP, inliners, cleanup,
    [no-jump-tables], and any request passes placed before them) and the
    request-only {e suffix} ([retpoline], [fineibt], [pac-ret], ...,
    [rsb-refill]).  The pipeline state after the prefix is kept in a
    process-wide, mutex-guarded LRU of {!memo_capacity} entries keyed on
    - the input program's physical identity,
    - the profile's canonical {!Pibe_profile.Profile.to_string} text,
    - [verify],
    - the prefix's canonical spec string.
    On a hit only the suffix and the final hardening run.  A hit returns
    fresh copies of the profile and provenance (no two results share
    mutable state), the optimized program itself (immutable) shared, and
    the prefix's recorded {!pass_stats} — so a replayed [wall_s] is the
    time measured by the run that computed the pass.  It also replays the
    prefix's [pass:*] spans with their [ir-delta]/[pass-detail] counters,
    so {!Pibe_trace.Trace.canonical} is the same on a hit and a miss.
    Hits and misses are counted ({!memo_stats}) and traced as
    [pm-memo-hit]/[pm-memo-miss] in the ["sched"] category.  A run with
    a [check] hook, or with an empty prefix, bypasses the memo: every
    pass runs and [check] sees every intermediate program. *)

type memo_stats = {
  hits : int;
  misses : int;
  entries : int;  (** entries held now, never above {!memo_capacity} *)
}

val memo_capacity : int
(** 8. *)

val memo_stats : unit -> memo_stats
(** Process-wide totals since start-up. *)

val table : ?title:string -> pass_stats list -> Pibe_util.Tbl.t
(** Per-pass stats rendered as an aligned table: wall-clock milliseconds,
    instruction/block/byte deltas, and remaining indirect edges. *)

val detail_lines : pass_stats -> string list
(** Pass-specific statistics (promotions, inlines, folds) as short
    human-readable lines; empty for passes without details. *)
