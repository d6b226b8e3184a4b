(** The overhead-vs-security frontier (bench id [frontier]): the paper's
    headline — optimize indirect branches first, then pay for hardening
    only on what survives — generalized beyond retpolines.

    For each defense set (none, coarse CFI, FineIBT, PAC, FineIBT+PAC,
    retpoline stack, all paper defenses) x {plain LTO, PIBE PGO
    front-end}, one row: LMBench geomean overhead over the LTO baseline
    next to the security ledger — how many of the five transient drills
    (Spectre-V2, valid-pad V2, Ret2spec, PAC forgery, LVI) still reach
    their gadget, and which.  PGO rows carry the same ledger at strictly
    lower overhead: the front-end removes branches, never weakens a
    defense. *)

val run : Env.t -> Pibe_util.Tbl.t

val defense_sets : (string * Pibe_harden.Pass.defenses) list
(** The seven defense sets, cheap/weak to expensive/strong, with their
    row labels. *)

val drill_names : string list
(** The ledger's drill labels, in column order. *)
