(** The profiling-phase plumbing: engine edge events -> (site, callee)
    counts -> binary address pairs -> lifted {!Profile.t}.

    Mirrors the paper's §7 flow: the profiling binary records edges at the
    {e binary} level; after the run, the aggregated address pairs are
    lifted back to IR call-site identities through the layout symbol
    table.  Two collection regimes are supported:

    - {e pristine image} (the paper's assumption): every site id is its
      own origin and the lift is a pure address→site table walk;
    - {e optimized/hardened image} (production reality — AutoFDO, Go
      PGO): clones resolve through their inherited origin, ICP-promoted
      direct sites fold back into the pristine indirect site's value
      profile, and call edges consumed by inlining — which emit nothing
      at all — are reconstructed from the {!Provenance} witness tree by a
      monotone fixpoint over instance counts.  Pass the image's
      provenance via [index ?provenance] to enable this.

    Address pairs that resolve to no known site or function (stale
    addresses from a mismatched layout, raw-PMU noise) are dropped, and
    the drop is counted: see {!lift_stats}.

    {2 Index and window}

    A collector has two halves.  The {!index} is the per-program part:
    the profiling image's layout symbol table, each call site's origin
    and kind in a dense table keyed by [site_id], and the image's
    provenance.  It is immutable once built, so one index serves every
    window of a deployment and may be shared by collectors running on
    different domains.  A {!t} adds the per-window counts on top of an
    index; {!reset} clears them (back to the state {!of_index} returns)
    without rebuilding the index, so a long-running loop pays the layout
    walk once per image, not once per window.

    {2 Hooked edges and raw samples}

    Edges from the engine hook are counted directly, per (site, callee)
    cell: the LBR ring is lossless ({!Lbr.flush} drains every record),
    so routing them through it would only add cost.  The ring and the
    address-pair aggregation serve {!record_raw} alone.  {!lift} turns
    the cells into address pairs through the layout, in first-occurrence
    order, so the lifted profile is the one a ring-fed collector of the
    same edges produces. *)

type index

type t

type lift_stats = {
  lifted_pairs : int;  (** pair weight lifted onto known sites *)
  dropped_pairs : int;
      (** weight that resolves to no known site or function: raw pairs
          outside every known range, and hooked edges whose site or
          callee the collector's program does not have (an engine running
          a different program than the one the index was built for) *)
  recovered_instances : int;
      (** inline instances assigned a non-zero count, by witness or by
          the scaled carry-forward estimate *)
  unrecovered_instances : int;
      (** inline instances whose count stayed zero: no witness signal,
          no carry-forward (e.g. the site was cold in training too) *)
  recovered_weight : int;  (** total count reconstructed for inlined-away edges *)
}

val index : ?provenance:Provenance.t -> Pibe_ir.Program.t -> index
(** Builds the layout symbol table for the profiling image and its dense
    site table (origin, kind, address by [site_id]).  [provenance] is the
    inline/promotion tree recorded when the image was built; omit it for
    pristine images. *)

val of_index : index -> t
(** A collector with empty counts over a shared index. *)

val create : ?provenance:Provenance.t -> Pibe_ir.Program.t -> t
(** [of_index (index ?provenance prog)], for one-shot collection. *)

val reset : t -> unit
(** Clears every count, raw sample, entry and the last lift's stats: the
    collector then behaves exactly like a fresh [of_index] of its index.
    Costs time in the number of cells the window touched, not in the
    program's size. *)

val hook_entry : t -> string -> unit
(** Record one top-level (kernel-entry) invocation of a function; wire as
    [Engine.on_entry].  These entries survive total inlining — no call
    edge is needed — and anchor the carry-forward scaling of the lift. *)

val hook : t -> Pibe_cpu.Engine.edge_event -> unit
(** Install as the engine's [on_edge] callback.  Counts the edge in its
    (site, callee) cell; an edge at a site id the program does not have
    is counted as dropped. *)

val instrument : t -> Pibe_cpu.Engine.config -> Pibe_cpu.Engine.config
(** [config] with [on_edge] and [on_entry] wired to {!hook} and
    {!hook_entry}: the profiling configuration of an engine. *)

val record_raw : t -> from_addr:int -> to_addr:int -> unit
(** Feed a raw address pair into the LBR ring, bypassing the engine
    hook — the ingestion path for externally captured (PMU-style)
    samples, whose addresses may not resolve at lift time. *)

val lift : t -> Profile.t
(** Flushes the LBR ring, then lifts every (from, to) pair of the
    window — hooked cells at their layout addresses, then raw samples:
    [from] resolves to a call site and through it to the site's {e origin}
    (direct counter, or value-profile entry for indirect sites), [to] to
    the entered function (invocation counts).  With provenance attached,
    direct counts at ICP-promoted origins are re-emitted as value-profile
    counts at the pristine indirect origin, and inlined-away edges are
    reconstructed from witness counts.  Unresolvable pairs are dropped
    and counted.  Updates {!stats}; when tracing is enabled, emits a
    ["collector:lift"] counter with the stats. *)

val stats : t -> lift_stats
(** Stats of the most recent {!lift} (zeros before the first). *)

val raw_pairs : t -> ((int * int) * int) list
(** Aggregated ((from_addr, to_addr), count) pairs of the window, hooked
    and raw together, sorted; for inspection. *)
