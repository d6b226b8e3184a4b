(* Pass manager: spec grammar round-trips, registry diagnostics, and the
   load-bearing guarantee of the refactor — every [Config] variant built
   through the manager produces the byte-identical image the hand-rolled
   seed pipeline produced. *)

module Spec = Pibe_pm.Spec
module Registry = Pibe_pm.Registry
module Manager = Pibe_pm.Manager
module Profile = Pibe_profile.Profile
module Pass = Pibe_harden.Pass

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Spec grammar                                                        *)
(* ------------------------------------------------------------------ *)

let spec_gen =
  let open QCheck.Gen in
  let ident =
    let chars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.+%-" in
    map
      (fun l -> String.concat "" (List.map (String.make 1) l))
      (list_size (int_range 1 8) (map (String.get chars) (int_range 0 (String.length chars - 1))))
  in
  let arg = pair ident (opt ident) in
  let elem = map (fun (name, args) -> Spec.elem ~args name) (pair ident (list_size (int_range 0 3) arg)) in
  list_size (int_range 1 5) elem

let spec_arb = QCheck.make ~print:Spec.to_string spec_gen

let prop_spec_round_trip =
  QCheck.Test.make ~name:"spec print/parse round-trips" ~count:500 spec_arb (fun spec ->
      match Spec.of_string (Spec.to_string spec) with
      | Ok parsed -> Spec.equal spec parsed
      | Error e -> QCheck.Test.fail_reportf "re-parse failed: %s" e)

let prop_float_arg_round_trip =
  QCheck.Test.make ~name:"float_arg round-trips through float_of_string" ~count:500
    QCheck.(float_range 0.0 100.0)
    (fun f -> Float.equal (float_of_string (Spec.float_arg f)) f)

let test_spec_whitespace_and_canonical () =
  match Spec.of_string " icp ( budget = 99.9 , lax ) ,\tcleanup " with
  | Ok spec ->
    Alcotest.(check string) "canonical form" "icp(budget=99.9,lax),cleanup"
      (Spec.to_string spec)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_spec_rejects_malformed () =
  let bad =
    [
      "";
      ",icp";
      "icp,";
      "icp,,cleanup";
      "icp(";
      "icp()";
      "icp(budget=)";
      "icp(budget=1))";
      "icp(budget=1)x";
      "icp cleanup";
      "icp(=1)";
    ]
  in
  List.iter
    (fun text ->
      match Spec.of_string text with
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%S error mentions an offset" text)
          true
          (String.length e > 0)
      | Ok spec ->
        Alcotest.failf "%S parsed as %s" text (Spec.to_string spec))
    bad

(* ------------------------------------------------------------------ *)
(* Registry diagnostics                                                *)
(* ------------------------------------------------------------------ *)

let resolve text =
  match Spec.of_string text with
  | Error e -> Error e
  | Ok spec -> Result.map (fun _ -> ()) (Registry.of_spec spec)

let test_registry_rejections () =
  (match resolve "nonsense" with
  | Error e ->
    Alcotest.(check bool) "unknown pass lists the registry" true
      (List.for_all (contains e) Registry.names)
  | Ok () -> Alcotest.fail "unknown pass accepted");
  (match resolve "icp(budget=hot)" with
  | Error e -> Alcotest.(check bool) "bad number named" true (contains e "budget")
  | Ok () -> Alcotest.fail "bad number accepted");
  match resolve "cleanup(budget=1)" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "cleanup should take no options"

let test_registry_accepts_all_names () =
  List.iter
    (fun name ->
      match Registry.find (Spec.elem name) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s does not resolve bare: %s" name e)
    Registry.names

(* The registry's self-documentation must round-trip through the spec
   grammar: every documented pass/option combination parses, resolves,
   and re-renders canonically — so `pibe passes` can never drift from
   what the registry actually accepts. *)
let test_registry_infos_round_trip () =
  Alcotest.(check (list string))
    "one info per registered pass, same order" Registry.names
    (List.map (fun (i : Registry.pass_info) -> i.Registry.info_name) Registry.infos);
  List.iter
    (fun (i : Registry.pass_info) ->
      let text = Registry.sample_spec_text i in
      match Spec.of_string text with
      | Error e -> Alcotest.failf "%s: sample %S does not parse: %s" i.Registry.info_name text e
      | Ok spec -> (
        Alcotest.(check string)
          (i.Registry.info_name ^ " sample is canonical")
          text (Spec.to_string spec);
        match Registry.of_spec spec with
        | Ok _ -> ()
        | Error e ->
          Alcotest.failf "%s: documented options rejected: %s" i.Registry.info_name e))
    Registry.infos

(* ------------------------------------------------------------------ *)
(* Config lowering                                                     *)
(* ------------------------------------------------------------------ *)

let variants =
  [
    ("lto", Pibe.Config.lto);
    ("icp-only retp", Pibe.Exp_common.icp_only ~budget:99.9 Pibe.Exp_common.retpolines_only);
    ( "full strict retret",
      Pibe.Exp_common.full_opt ~icp:99.999 ~inline:99.9 Pibe.Exp_common.ret_retpolines_only );
    ("full lax all", Pibe.Exp_common.best_config Pibe.Exp_common.all_defenses);
    ("full lax fineibt+pac", Pibe.Exp_common.best_config Pibe.Exp_common.fineibt_pac);
    ("icp-only coarse-cfi", Pibe.Exp_common.icp_only ~budget:99.9 Pibe.Exp_common.coarse_cfi_only);
    ( "llvm-pgo lvi",
      {
        Pibe.Config.defenses = Pibe.Exp_common.lvi_only;
        opt = Pibe.Config.Llvm_pgo { icp_budget = 99.999; inline_budget = 99.9999 };
      } );
  ]

let test_spec_of_config_round_trips () =
  List.iter
    (fun (label, config) ->
      let spec = Pibe.Pipeline.spec_of_config config in
      match Spec.of_string (Spec.to_string spec) with
      | Ok parsed ->
        Alcotest.(check bool) (label ^ " round-trips") true (Spec.equal spec parsed);
        (match Registry.of_spec parsed with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s does not resolve: %s" label e)
      | Error e -> Alcotest.failf "%s re-parse failed: %s" label e)
    variants

(* ------------------------------------------------------------------ *)
(* Byte-identical equivalence with the seed pipeline                   *)
(* ------------------------------------------------------------------ *)

(* The hand-rolled seed pipeline, replicated verbatim (including the old
   merge-into-empty profile clone): the manager must reproduce its image
   byte for byte on every configuration variant. *)
let legacy_build prog profile config =
  let profile = Profile.merge profile (Profile.create ()) in
  let prog =
    match config.Pibe.Config.opt with
    | Pibe.Config.No_opt -> Pibe_opt.Cleanup.run prog
    | Pibe.Config.Icp_only { budget } ->
      let prog, _ =
        Pibe_opt.Icp.run prog profile
          { Pibe_opt.Icp.default_config with Pibe_opt.Icp.budget_pct = budget }
      in
      Pibe_opt.Cleanup.run prog
    | Pibe.Config.Full { icp_budget; inline_budget; lax } ->
      let prog, _ =
        Pibe_opt.Icp.run prog profile
          { Pibe_opt.Icp.default_config with Pibe_opt.Icp.budget_pct = icp_budget }
      in
      let prog, _ =
        Pibe_opt.Inliner.run prog profile
          {
            Pibe_opt.Inliner.default_config with
            Pibe_opt.Inliner.budget_pct = inline_budget;
            lax_within_pct = (if lax then Some 99.0 else None);
          }
      in
      Pibe_opt.Cleanup.run prog
    | Pibe.Config.Llvm_pgo { icp_budget; inline_budget } ->
      let prog, _ =
        Pibe_opt.Icp.run prog profile
          { Pibe_opt.Icp.default_config with Pibe_opt.Icp.budget_pct = icp_budget }
      in
      let prog, _ =
        Pibe_opt.Llvm_inliner.run prog profile
          {
            Pibe_opt.Llvm_inliner.default_config with
            Pibe_opt.Llvm_inliner.budget_pct = inline_budget;
          }
      in
      Pibe_opt.Cleanup.run prog
  in
  Pass.harden prog config.Pibe.Config.defenses

let test_manager_matches_legacy_pipeline () =
  let env = Helpers.env () in
  let info = Pibe.Env.info env in
  let profile = Pibe.Env.lmbench_profile env in
  List.iter
    (fun (label, config) ->
      let legacy = legacy_build info.Pibe_kernel.Gen.prog profile config in
      let built =
        Pibe.Pipeline.build ~verify:true info.Pibe_kernel.Gen.prog profile config
      in
      let image = built.Pibe.Pipeline.image in
      Alcotest.(check string)
        (label ^ " image IR is byte-identical")
        (Pibe_ir.Printer.program_to_string legacy.Pass.prog)
        (Pibe_ir.Printer.program_to_string image.Pass.prog);
      Alcotest.(check int)
        (label ^ " image bytes agree")
        (Pass.image_bytes legacy) (Pass.image_bytes image);
      let audit r = Pibe_harden.Audit.run r in
      Alcotest.(check int)
        (label ^ " defended icalls agree")
        (audit legacy).Pibe_harden.Audit.defended_icalls
        (audit image).Pibe_harden.Audit.defended_icalls;
      (* per-pass stats cover the whole lowered spec *)
      Alcotest.(check int)
        (label ^ " one stats row per spec element")
        (List.length (Pibe.Pipeline.spec_of_config config))
        (List.length built.Pibe.Pipeline.pass_stats))
    variants

let test_manager_run_spec_errors () =
  let env = Helpers.env () in
  let info = Pibe.Env.info env in
  let profile = Pibe.Env.lmbench_profile env in
  match Spec.of_string "icp(budget=99.9),mystery" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok spec -> (
    match Pibe.Pipeline.run_spec info.Pibe_kernel.Gen.prog profile spec with
    | Error e -> Alcotest.(check bool) "names the unknown pass" true (contains e "mystery")
    | Ok _ -> Alcotest.fail "unknown pass ran anyway")

(* ------------------------------------------------------------------ *)
(* Profile.copy                                                        *)
(* ------------------------------------------------------------------ *)

let test_profile_copy_is_independent () =
  let env = Helpers.env () in
  let info = Pibe.Env.info env in
  let original = Pibe.Env.lmbench_profile env in
  let before = Profile.to_string original in
  let copy = Profile.copy original in
  Alcotest.(check string) "copy starts identical" before (Profile.to_string copy);
  (* ICP mutates its profile (promoted sites become direct): the copy must
     absorb that while the original stays untouched. *)
  let _ =
    Pibe_opt.Icp.run info.Pibe_kernel.Gen.prog copy
      { Pibe_opt.Icp.default_config with Pibe_opt.Icp.budget_pct = 99.999 }
  in
  Alcotest.(check string) "original unchanged after mutating the copy" before
    (Profile.to_string original);
  Alcotest.(check bool) "the copy really was mutated" true
    (not (String.equal before (Profile.to_string copy)))


(* ------------------------------------------------------------------ *)
(* Optimization-prefix memo                                            *)
(* ------------------------------------------------------------------ *)

let passes_of_config config =
  match Registry.of_spec (Pibe.Pipeline.spec_of_config config) with
  | Ok passes -> passes
  | Error e -> Alcotest.failf "config does not resolve: %s" e

(* A [check] hook bypasses the memo, so this always runs every pass. *)
let cold_run prog profile passes = Manager.run ~check:ignore prog profile passes

(* Which defense each site got, plus the CFI landing pads: the parts of
   an image the printer does not show. *)
let protection_lines (img : Pass.image) =
  let lines tbl key name =
    List.sort compare (Hashtbl.fold (fun k v acc -> (key k ^ " " ^ name v) :: acc) tbl [])
  in
  let pads =
    match img.Pass.cfi with
    | None -> []
    | Some cfi -> List.filter (Pibe_harden.Cfi.has_pad cfi) (Pibe_ir.Program.layout_order img.Pass.prog)
  in
  ("fwd" :: lines img.Pass.fwd string_of_int Pibe_ir.Protection.forward_name)
  @ ("bwd" :: lines img.Pass.bwd Fun.id Pibe_ir.Protection.backward_name)
  @ ("pads" :: pads)

let check_same_image label (expected : Pass.image) (got : Pass.image) =
  Alcotest.(check string) (label ^ ": printer text")
    (Pibe_ir.Printer.program_to_string expected.Pass.prog)
    (Pibe_ir.Printer.program_to_string got.Pass.prog);
  Alcotest.(check (list string)) (label ^ ": protection tables") (protection_lines expected)
    (protection_lines got);
  Alcotest.(check int) (label ^ ": image bytes") (Pass.image_bytes expected) (Pass.image_bytes got)

let memo_delta f =
  let s0 = Manager.memo_stats () in
  let r = f () in
  let s1 = Manager.memo_stats () in
  (r, s1.Manager.hits - s0.Manager.hits, s1.Manager.misses - s0.Manager.misses)

let test_memo_hit_equals_cold () =
  let env = Helpers.env () in
  let prog = (Pibe.Env.info env).Pibe_kernel.Gen.prog in
  let profile = Pibe.Env.lmbench_profile env in
  List.iter
    (fun (dname, d) ->
      List.iter
        (fun (fe, config) ->
          let label = dname ^ "/" ^ fe in
          let passes = passes_of_config config in
          ignore (Manager.run prog profile passes);
          let hit, hits, misses = memo_delta (fun () -> Manager.run prog profile passes) in
          Alcotest.(check (pair int int)) (label ^ ": second run hits") (1, 0) (hits, misses);
          let cold = cold_run prog profile passes in
          check_same_image label cold.Manager.image hit.Manager.image;
          Alcotest.(check string) (label ^ ": profile")
            (Profile.to_string cold.Manager.profile) (Profile.to_string hit.Manager.profile);
          Alcotest.(check string) (label ^ ": provenance")
            (Pibe_profile.Provenance.to_string cold.Manager.provenance)
            (Pibe_profile.Provenance.to_string hit.Manager.provenance);
          Alcotest.(check (list string)) (label ^ ": pass rows")
            (List.map (fun (s : Manager.pass_stats) -> s.Manager.pass) cold.Manager.passes)
            (List.map (fun (s : Manager.pass_stats) -> s.Manager.pass) hit.Manager.passes))
        [ ("LTO", Pibe.Exp_common.lto_with d); ("PIBE-PGO", Pibe.Exp_common.best_config d) ])
    Pibe.Exp_frontier.defense_sets

(* A result owns its profile and provenance: mutating one must not leak
   into the memo or into a later result. *)
let test_memo_results_share_no_state () =
  let env = Helpers.env () in
  let prog = (Pibe.Env.info env).Pibe_kernel.Gen.prog in
  let profile = Pibe.Env.lmbench_profile env in
  let passes = passes_of_config (Pibe.Exp_common.best_config Pibe.Exp_common.all_defenses) in
  let first = Manager.run prog profile passes in
  Profile.add_direct first.Manager.profile ~origin:(-7) ~count:12345;
  Pibe_profile.Provenance.record_promotion first.Manager.provenance ~promoted_origin:(-8)
    ~origin:(-9) ~target:"mutated";
  let later, hits, _ = memo_delta (fun () -> Manager.run prog profile passes) in
  Alcotest.(check int) "later run hits" 1 hits;
  let cold = cold_run prog profile passes in
  check_same_image "later" cold.Manager.image later.Manager.image;
  Alcotest.(check string) "later profile equals a cold build's"
    (Profile.to_string cold.Manager.profile) (Profile.to_string later.Manager.profile);
  Alcotest.(check string) "later provenance equals a cold build's"
    (Pibe_profile.Provenance.to_string cold.Manager.provenance)
    (Pibe_profile.Provenance.to_string later.Manager.provenance)

let test_memo_profile_mutation_misses () =
  let env = Helpers.env () in
  let prog = (Pibe.Env.info env).Pibe_kernel.Gen.prog in
  let profile = Profile.copy (Pibe.Env.lmbench_profile env) in
  let config = Pibe.Exp_common.best_config Pibe.Exp_common.fineibt_pac in
  ignore (Pibe.Pipeline.build prog profile config);
  (* make one indirect site's runner-up target dominate *)
  let origin, target =
    List.find_map
      (fun origin ->
        match Profile.value_profile profile ~origin with
        | _ :: (t, _) :: _ -> Some (origin, t)
        | _ -> None)
      (Profile.profiled_indirect_origins profile)
    |> Option.get
  in
  Profile.add_indirect profile ~origin ~target ~count:1_000_000;
  let built, hits, misses = memo_delta (fun () -> Pibe.Pipeline.build prog profile config) in
  Alcotest.(check (pair int int)) "mutated profile misses" (0, 1) (hits, misses);
  let cold = cold_run prog profile (passes_of_config config) in
  check_same_image "after mutation" cold.Manager.image built.Pibe.Pipeline.image

let test_memo_check_hook_sees_every_pass () =
  let env = Helpers.env () in
  let prog = (Pibe.Env.info env).Pibe_kernel.Gen.prog in
  let profile = Pibe.Env.lmbench_profile env in
  let passes = passes_of_config (Pibe.Exp_common.best_config Pibe.Exp_common.all_defenses) in
  ignore (Manager.run prog profile passes);
  let calls = ref 0 in
  let _, hits, misses =
    memo_delta (fun () -> Manager.run ~check:(fun _ -> incr calls) prog profile passes)
  in
  Alcotest.(check int) "check ran after every pass" (List.length passes) !calls;
  Alcotest.(check (pair int int)) "check runs bypass the memo" (0, 0) (hits, misses)

let test_memo_racing_domains () =
  (* a freshly generated kernel is a physically new program: a cold key *)
  let prog = (Pibe_kernel.Gen.generate { Pibe_kernel.Ctx.seed = 42; scale = 1 }).Pibe_kernel.Gen.prog in
  let profile = Pibe.Env.lmbench_profile (Helpers.env ()) in
  let passes = passes_of_config (Pibe.Exp_common.best_config Pibe.Exp_common.all_defenses) in
  let images, hits, misses =
    memo_delta (fun () ->
        List.init 4 (fun _ -> Domain.spawn (fun () -> (Manager.run prog profile passes).Manager.image))
        |> List.map Domain.join)
  in
  Alcotest.(check int) "every run counted once" 4 (hits + misses);
  Alcotest.(check bool) "at least one miss" true (misses >= 1);
  let first = List.hd images in
  List.iteri (fun i img -> check_same_image (Printf.sprintf "domain %d" i) first img) images;
  Alcotest.(check bool) "capacity respected" true
    ((Manager.memo_stats ()).Manager.entries <= Manager.memo_capacity)

let test_memo_stats_and_capacity () =
  let env = Helpers.env () in
  let prog = (Pibe.Env.info env).Pibe_kernel.Gen.prog in
  let profile = Pibe.Env.lmbench_profile env in
  let spec i = Printf.sprintf "icp(budget=%d.5),cleanup,retpoline" (80 + i) in
  let run i =
    match Spec.of_string (spec i) with
    | Error e -> Alcotest.failf "bad spec: %s" e
    | Ok s -> (
      match Pibe.Pipeline.run_spec prog profile s with
      | Ok r -> r
      | Error e -> Alcotest.failf "run_spec: %s" e)
  in
  let n = Manager.memo_capacity + 2 in
  for i = 0 to n - 1 do
    let _, hits, misses = memo_delta (fun () -> run i) in
    Alcotest.(check (pair int int)) (spec i ^ " is new") (0, 1) (hits, misses);
    Alcotest.(check bool) "never above capacity" true
      ((Manager.memo_stats ()).Manager.entries <= Manager.memo_capacity)
  done;
  let _, hits, misses = memo_delta (fun () -> run (n - 1)) in
  Alcotest.(check (pair int int)) "most recent key hits" (1, 0) (hits, misses);
  let _, hits, misses = memo_delta (fun () -> run 0) in
  Alcotest.(check (pair int int)) "least recent key was evicted" (0, 1) (hits, misses);
  Alcotest.(check int) "full" Manager.memo_capacity (Manager.memo_stats ()).Manager.entries;
  (* an empty prefix has nothing to memoize *)
  let _, hits, misses = memo_delta (fun () -> Manager.run prog profile []) in
  Alcotest.(check (pair int int)) "empty prefix bypasses the memo" (0, 0) (hits, misses)

let suite =
  [
    Helpers.qcheck_to_alcotest prop_spec_round_trip;
    Helpers.qcheck_to_alcotest prop_float_arg_round_trip;
    ("spec whitespace/canonical form", `Quick, test_spec_whitespace_and_canonical);
    ("spec rejects malformed input", `Quick, test_spec_rejects_malformed);
    ("registry diagnostics", `Quick, test_registry_rejections);
    ("registry resolves every name", `Quick, test_registry_accepts_all_names);
    ("registry docs round-trip the grammar", `Quick, test_registry_infos_round_trip);
    ("config lowering round-trips", `Quick, test_spec_of_config_round_trips);
    ("manager matches the seed pipeline", `Slow, test_manager_matches_legacy_pipeline);
    ("run_spec reports unknown passes", `Quick, test_manager_run_spec_errors);
    ("profile copy is independent", `Quick, test_profile_copy_is_independent);
    ("memo hit equals a cold build", `Slow, test_memo_hit_equals_cold);
    ("memo results share no state", `Quick, test_memo_results_share_no_state);
    ("memo misses on a mutated profile", `Quick, test_memo_profile_mutation_misses);
    ("memo check hook sees every pass", `Quick, test_memo_check_hook_sees_every_pass);
    ("memo racing domains agree", `Quick, test_memo_racing_domains);
    ("memo stats and capacity", `Quick, test_memo_stats_and_capacity);
  ]
