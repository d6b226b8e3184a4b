(* The three workloads: their set-up, the seeded stream of requests, one
   operation per request, and the check of every operation's output
   against the reference table ([expected.txt], produced by the
   interpreter backend with [--gen-expected]).

   Every call the benchmark makes into a layer of the program goes
   through [call], which wraps it in a [bench:<layer>] span and, while
   tracing, records the GC words it allocated. *)

module Gen = Pibe_kernel.Gen
module W = Pibe_kernel.Workload
module Engine = Pibe_cpu.Engine
module Rng = Pibe_util.Rng
module Stats = Pibe_util.Stats
module H = Pibe_harden.Pass
module Sim = Pibe_online.Sim
module Trace = Pibe_trace.Trace
open Pibe

type workload =
  | Build
  | Execute
  | Online

let workloads = [ ("build", Build); ("execute", Execute); ("online", Online) ]
let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* Words allocated so far by this domain: minor allocations plus direct
   major allocations (promotions are already counted as minor words).
   The same computation allocates the same words whatever the GC did. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  int_of_float (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)

let call layer f =
  if not (Trace.enabled ()) then f ()
  else begin
    let a0 = alloc_words () in
    let v = Trace.span ~cat:"bench" ("bench:" ^ layer) f in
    let words = alloc_words () - a0 in
    Trace.counter ~cat:"bench" "bench:alloc"
      [ ("layer", Trace.Str layer); ("words", Trace.Int words) ];
    v
  end

(* ------------------------------ set-up ------------------------------ *)

type setup = {
  info : Gen.info;
  lmbench : Pibe_profile.Profile.t;  (** training profile of every workload *)
  apache : Pibe_profile.Profile.t;  (** second training profile ([build] only) *)
  images : (string * H.image) list;  (** prebuilt images ([execute] only) *)
}

(* The images [execute] runs: the unhardened LTO baseline first, then
   the hardened images whose overhead against it is reported. *)
let execute_images =
  [
    ("lto", Config.lto);
    ("lto-all", Exp_common.lto_with Exp_common.all_defenses);
    ("pibe-all", Exp_common.best_config Exp_common.all_defenses);
    ("pibe-fineibt-pac", Exp_common.best_config Exp_common.fineibt_pac);
  ]

(* Kernel generation and the training profiles are those of the
   experiments ([Env] at scale 3, seed 42), so every figure here is on
   the same kernel and profiles as the paper tables. *)
let setup workload =
  let env = Env.create ~scale:3 () in
  let info = call "kernel" (fun () -> Env.info env) in
  let lmbench = call "profile" (fun () -> Env.lmbench_profile env) in
  let apache =
    if workload = Build then call "profile" (fun () -> Env.apache_profile env) else lmbench
  in
  let images =
    if workload = Execute then
      List.map
        (fun (name, config) -> (name, call "build" (fun () -> (Env.build env config).Pipeline.image)))
        execute_images
    else []
  in
  { info; lmbench; apache; images }

(* ---------------------------- operations ---------------------------- *)

type output =
  | Image of H.image
  | Cycles of {
      image : string;
      input : string;  (** input name and stream seed: the overhead pairing key *)
      cycles : float;
    }
  | Deployment of {
      variant : string;
      seed : int;
      outcome : Sim.outcome;
    }

type cell = {
  key : string;  (** identifies the request in the reference table *)
  run : unit -> output;
}

(* The seven defense sets of the frontier experiment. *)
let defense_sets =
  [
    ("none", H.no_defenses);
    ("coarse-cfi", Exp_common.coarse_cfi_only);
    ("fineibt", Exp_common.fineibt_only);
    ("pac-ret", Exp_common.pac_only);
    ("fineibt+pac-ret", Exp_common.fineibt_pac);
    ("retp+ret-retp", { H.no_defenses with H.retpolines = true; ret_retpolines = true });
    ("all-defenses", Exp_common.all_defenses);
  ]

let build_cells s rng =
  let prog = s.info.Gen.prog in
  let request ~key ~profile config =
    (* half the requests name a configuration, half a textual spec *)
    let via_config = Rng.bool rng in
    {
      key;
      run =
        (fun () ->
          if via_config then
            Image (call "build" (fun () -> (Pipeline.build prog profile config).Pipeline.image))
          else
            let spec = Pipeline.spec_of_config config in
            match call "build" (fun () -> Pipeline.run_spec prog profile spec) with
            | Ok r -> Image r.Pibe_pm.Manager.image
            | Error e -> failwith e);
    }
  in
  List.concat_map
    (fun (dname, d) ->
      (* LTO ignores the profile, so one LTO request per defense set *)
      let lto_profile = if Rng.bool rng then s.lmbench else s.apache in
      request ~key:("build/lto/" ^ dname) ~profile:lto_profile (Exp_common.lto_with d)
      :: List.map
           (fun (pname, profile) ->
             request
               ~key:(Printf.sprintf "build/pgo-%s/%s" pname dname)
               ~profile
               (Config.with_defenses Config.pibe_baseline d))
           [ ("lmbench", s.lmbench); ("apache", s.apache) ])
    defense_sets

(* Measurement-stream seeds of [execute] and deployment seeds of
   [online]: the reference table covers every one of them. *)
let execute_seeds = [ 7; 8; 9; 10 ]
let online_seeds = [ 23; 29; 31; 37 ]
let pick rng xs = List.nth xs (Rng.int rng (List.length xs))

type input =
  | Op of W.op
  | Mix of W.mix

let inputs info =
  List.map (fun op -> ("lmbench:" ^ op.W.op_name, Op op)) (W.lmbench info)
  @ List.map
      (fun (m : W.mix) -> ("mix:" ^ m.W.mix_name, Mix m))
      [ W.apache info; W.nginx info; W.dbench info ]

let execute_cell ~image:(iname, img) ~input:(name, inp) ~seed =
  let input = Printf.sprintf "%s/%d" name seed in
  {
    key = Printf.sprintf "exec/%s/%s" iname input;
    run =
      (fun () ->
        let settings = { Measure.default_settings with Measure.rng_seed = seed } in
        let engine =
          call "create" (fun () -> Engine.create ~config:(H.engine_config img) img.H.prog)
        in
        let cycles =
          call "exec" (fun () ->
              match inp with
              | Op op -> Measure.op_latency ~settings engine op
              | Mix m -> Measure.mix_kernel_cycles ~settings engine m)
        in
        Cycles { image = iname; input; cycles });
  }

let execute_cells s rng =
  List.concat_map
    (fun inp ->
      let seed = pick rng execute_seeds in
      List.map (fun image -> execute_cell ~image ~input:inp ~seed) s.images)
    (inputs s.info)

(* Nine windows of sixty requests over the drifting LMBench -> Apache ->
   DBench phases, with the default detector (threshold 0.25, hysteresis
   2, at most 3 rebuilds). *)
let windows_per_phase = 3
let requests_per_window = 60

let online_variants =
  let pibe = Pipeline.spec_of_config (Exp_common.best_config Exp_common.all_defenses) in
  [
    ("lto-static", Pipeline.spec_of_config Config.lto, false, false);
    ("pibe-static-shadow", pibe, false, false);
    ("pibe-static-deployed", pibe, false, true);
    ("pibe-adaptive-shadow", pibe, true, false);
    ("pibe-adaptive-deployed", pibe, true, true);
  ]

let online_cell s (variant, spec, adaptive, on_deployed) ~seed =
  {
    key = Printf.sprintf "online/%s/%d" variant seed;
    run =
      (fun () ->
        let config =
          {
            Sim.default_config with
            Sim.requests_per_window;
            seed;
            profile_on_deployed = on_deployed;
          }
        in
        let phases = List.map (fun p -> (p, windows_per_phase)) (W.standard_phases s.info) in
        match
          call "deploy" (fun () ->
              Sim.run ~config ~adaptive ~prog:s.info.Gen.prog ~spec ~training:s.lmbench ~phases ())
        with
        | Error e -> failwith e
        | Ok { Sim.aborted = Some e; _ } -> failwith ("deployment aborted: " ^ e)
        | Ok outcome -> Deployment { variant; seed; outcome });
  }

(* Every variant on every deployment seed, so each round holds the same
   twenty deployments and the seed sets only their order. *)
let online_cells s =
  List.concat_map
    (fun seed -> List.map (fun v -> online_cell s v ~seed) online_variants)
    online_seeds

(* One round of the stream: every request kind of the workload once, in
   a seeded order.  Rounds keep the mix of request kinds fixed, so the
   latency percentiles do not depend on which kinds a short run drew. *)
let round workload s rng =
  let cells =
    match workload with
    | Build -> build_cells s rng
    | Execute -> execute_cells s rng
    | Online -> online_cells s
  in
  let a = Array.of_list cells in
  Rng.shuffle rng a;
  Array.to_list a

(* Every request of a workload with its reference key, for
   [--gen-expected]. *)
let all_cells workload s =
  let rng = Rng.create 0 in
  match workload with
  | Build -> build_cells s rng
  | Execute ->
    List.concat_map
      (fun seed ->
        List.concat_map
          (fun input -> List.map (fun image -> execute_cell ~image ~input ~seed) s.images)
          (inputs s.info))
      execute_seeds
  | Online -> online_cells s

(* ------------------------------ checks ------------------------------ *)

(* Digest of which defense each site got: the forward protection of
   every icall site, the backward protection of every function, and the
   functions that carry a CFI landing pad.  The printer sees none of
   these; they live in the image's tables. *)
let protection_digest (img : H.image) =
  let lines tbl key name =
    List.sort compare (Hashtbl.fold (fun k v acc -> (key k ^ " " ^ name v) :: acc) tbl [])
  in
  let pads =
    match img.H.cfi with
    | None -> []
    | Some cfi ->
      List.filter (Pibe_harden.Cfi.has_pad cfi) (Pibe_ir.Program.layout_order img.H.prog)
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (("fwd" :: lines img.H.fwd string_of_int Pibe_ir.Protection.forward_name)
          @ ("bwd" :: lines img.H.bwd Fun.id Pibe_ir.Protection.backward_name)
          @ ("pads" :: pads))))

(* The deterministic fingerprint of an output, as written in the
   reference table.  Images: printer digest, protection digest and
   [image_bytes]; cycles exactly (hexadecimal float); deployments: total
   and patch cycles, rebuilds and windows. *)
let fingerprint = function
  | Image img ->
    Printf.sprintf "%s %s %d"
      (Digest.to_hex (Digest.string (Pibe_ir.Printer.program_to_string img.H.prog)))
      (protection_digest img) (H.image_bytes img)
  | Cycles { cycles; _ } -> Printf.sprintf "%h" cycles
  | Deployment { outcome = o; _ } ->
    Printf.sprintf "%d %d %d %d" o.Sim.total_cycles o.Sim.total_patch_cycles o.Sim.rebuilds
      (List.length o.Sim.windows)

let check expected key out =
  let invalid =
    match out with
    | Image img -> (
      match Pibe_ir.Validate.check_program img.H.prog with
      | [] -> None
      | e :: _ ->
        Some (Printf.sprintf "invalid image: %s: %s" e.Pibe_ir.Validate.where e.Pibe_ir.Validate.what))
    | Cycles _ | Deployment _ -> None
  in
  match invalid with
  | Some e -> Error e
  | None -> (
    let got = fingerprint out in
    match Hashtbl.find_opt expected key with
    | None -> Error (Printf.sprintf "%s: no reference value" key)
    | Some want when want = got -> Ok ()
    | Some want -> Error (Printf.sprintf "%s: got %s, expected %s" key got want))

let load_expected path =
  let tbl = Hashtbl.create 512 in
  In_channel.with_open_text path (fun ic ->
      let rec loop () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
          (match String.index_opt line ' ' with
          | Some i when line <> "" && line.[0] <> '#' ->
            Hashtbl.replace tbl (String.sub line 0 i)
              (String.sub line (i + 1) (String.length line - i - 1))
          | _ -> ());
          loop ()
      in
      loop ());
  tbl

(* ------------------------ deterministic figures ------------------------ *)

(* Geometric mean simulated overhead (%) of the hardened images against
   the unhardened LTO baseline on the same inputs: per (input, seed) in
   [execute], per deployment seed in [online]. *)
let sim_overhead_pct outputs =
  let keyed =
    List.filter_map
      (function
        | Cycles { image; input; cycles } -> Some (input, cycles, image = "lto")
        | Deployment { variant; seed; outcome } ->
          Some (string_of_int seed, float_of_int outcome.Sim.total_cycles, variant = "lto-static")
        | Image _ -> None)
      outputs
  in
  let base = Hashtbl.create 64 in
  List.iter (fun (k, v, is_base) -> if is_base then Hashtbl.replace base k v) keyed;
  let ovs =
    List.filter_map
      (fun (k, v, is_base) ->
        if is_base then None
        else Option.map (fun b -> Stats.overhead_pct ~baseline:b v) (Hashtbl.find_opt base k))
      keyed
  in
  if ovs = [] then None else Some (Stats.geomean_overhead ovs)

(* Mean size (KB) of the images a round built. *)
let image_kb outputs =
  let sizes =
    List.filter_map
      (function Image img -> Some (float_of_int (H.image_bytes img) /. 1024.) | _ -> None)
      outputs
  in
  if sizes = [] then None else Some (Stats.mean sizes)

let rebuilds_and_windows outputs =
  List.fold_left
    (fun (r, w) -> function
      | Deployment { outcome = o; _ } -> (r + o.Sim.rebuilds, w + List.length o.Sim.windows)
      | _ -> (r, w))
    (0, 0) outputs
