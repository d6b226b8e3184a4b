(* The repository benchmark: one seeded, closed-loop workload per run
   (one client, one domain: each operation starts when the previous one
   has finished), every operation's output checked against the
   reference table, and the result printed as one JSON object on the
   last line of standard output.

     main.exe --workload build|execute|online --seed N --seconds S --trace 0|1

   With [--trace 0] the run reports the end-to-end metrics.  With
   [--trace 1] every operation runs twice, traced and untraced (the
   order alternating by round), and the run reports the per-layer
   metrics, the tracing overhead, and writes the layer ledger to
   [.perfbench/ledger-<workload>-seed<N>.json].

   [--gen-expected FILE] writes the reference table with the
   interpreter backend; [--self-test] shows that a perturbed reference
   value is reported as a failed operation. *)

module Trace = Pibe_trace.Trace
module Stats = Pibe_util.Stats
module Rng = Pibe_util.Rng
module Engine = Pibe_cpu.Engine

let now = Unix.gettimeofday

(* Tail percentile per workload: the highest percentile that keeps at
   least ten samples beyond it at the workload's operation count, and the
   minimum count a run completes so that it always does.  [online] runs
   at least three rounds of twenty deployments: each round compiles 28
   new images, so from the third round on the engine's 64-entry compile
   cache is full and the peak resident memory no longer depends on the
   run's length.  Its p83 (ten samples beyond it at 60 operations) lies
   among the twelve adaptive shadow-profiled deployments, the only ones
   that rebuild, so the rebuild path moves it. *)
type sizing = {
  tail_pct : float;
  min_ops : int;
  warm_rounds : int;  (** untimed rounds before the timed phase *)
}

let sizing = function
  | Cells.Build -> { tail_pct = 90.; min_ops = 100; warm_rounds = 0 }
  | Cells.Execute -> { tail_pct = 99.; min_ops = 1000; warm_rounds = 1 }
  | Cells.Online -> { tail_pct = 83.; min_ops = 60; warm_rounds = 0 }

let setup_reps = 11

type tally = {
  mutable attempted : int;
  mutable failed : int;
}

let attempt tally expected (cell : Cells.cell) =
  let t0 = now () in
  let r = try Ok (cell.Cells.run ()) with e -> Error (Printexc.to_string e) in
  let dt = now () -. t0 in
  tally.attempted <- tally.attempted + 1;
  let verdict =
    match r with
    | Error e -> Error (cell.Cells.key ^ ": " ^ e)
    | Ok out -> Cells.check expected cell.Cells.key out
  in
  (match verdict with
  | Ok () -> ()
  | Error e ->
    tally.failed <- tally.failed + 1;
    if tally.failed <= 5 then Printf.eprintf "perfbench: failed op: %s\n%!" e);
  (dt, Result.to_option r)

(* One set-up, its host time and, traced, its events. *)
let timed_setup workload ~traced =
  if traced then Trace.start ();
  let t0 = now () in
  let s = Cells.setup workload in
  let dt = now () -. t0 in
  (s, dt, if traced then Trace.stop () else [])

(* Host seconds of one set-up and the mean seconds of its
   kernel-generation and profiling calls (0 untraced). *)
type setup_sample = {
  total_s : float;
  kernel_s : float;
  profile_s : float;
}

let sample_of dt evs =
  let mean name =
    match Ledger.durations_ms evs name with [] -> 0. | ds -> Stats.mean ds /. 1000.
  in
  { total_s = dt; kernel_s = mean "bench:kernel"; profile_s = mean "bench:profile" }

(* One set-up in a fresh child process ([--setup-sample]), which prints
   its sample as one line; the child is waited for. *)
let setup_in_child workload ~traced =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let args =
    [|
      Sys.executable_name; "--setup-sample"; "--workload"; Cells.workload_name workload;
      "--trace"; (if traced then "1" else "0");
    |]
  in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let line = In_channel.input_line ic in
  close_in ic;
  match (Unix.waitpid [] pid, line) with
  | (_, Unix.WEXITED 0), Some l ->
    Scanf.sscanf l "%h %h %h" (fun total_s kernel_s profile_s -> { total_s; kernel_s; profile_s })
  | _ -> failwith "set-up in a child process failed"

(* Set-up is timed [setup_reps] times, each in a process of its own:
   this process runs the set-up it uses, and fresh child processes run
   the others, half before the timed phase and half after it, so the
   samples span the run's length and several memory layouts.
   Repetitions inside this process would leave their programs in the
   engine's compile cache and change the memory and collection work of
   the timed phase. *)
let children workload ~traced =
  List.init ((setup_reps - 1) / 2) (fun _ -> setup_in_child workload ~traced)

let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec loop () =
            match In_channel.input_line ic with
            | None -> None
            | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                  Some (float_of_int kb /. 1024.))
            | Some _ -> loop ()
          in
          loop ())
    with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> None
  in
  match from_proc with
  | Some mb -> mb
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* ------------------------------ output ------------------------------ *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let metrics_json metrics =
  String.concat ", "
    (List.map
       (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
       metrics)

let result_line ~correct tally metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    tally.attempted tally.failed (metrics_json metrics)

let print_metrics metrics =
  List.iter (fun (name, v, unit) -> Printf.printf "  %-28s %14.4f %s\n" name v unit) metrics

(* ---------------------------- timed phase ---------------------------- *)

(* Host time and simulated instructions of traced [execute] operations,
   by image family. *)
type family = {
  mutable exec_ms : float;
  mutable insts : int;
}

type timed = {
  lat : float list;  (** untraced latency of every timed operation, s *)
  rounds : int;  (** timed rounds *)
  round0 : Cells.output list;  (** outputs of the first round *)
  events : Trace.event list;  (** traced executions, warm-up included *)
  round0_events : Trace.event list;  (** traced executions of the first round *)
  traced_metrics : (string * float * string) list;
}

(* The closed loop.  Untimed warm-up rounds come first; the timed phase
   lasts [seconds] and runs at least [min_ops] operations, always ending
   on a round boundary.  With [traced], every operation also runs once
   more inside a trace, traced copy first on even rounds, and the timed
   rounds compare the traced and untraced host time. *)
let timed_phase workload s expected ~seed ~seconds ~traced tally =
  let sz = sizing workload in
  let rng = Rng.create seed in
  let lat = ref [] and timed = ref 0 and round0 = ref [] in
  let events = ref [] and round0_events = ref [] and traced_s = ref 0. in
  let lto = { exec_ms = 0.; insts = 0 } and pibe = { exec_ms = 0.; insts = 0 } in
  let cache0 = ref (Engine.compile_cache_stats ()) in
  let r = ref 0 and t_start = ref (now ()) in
  let more () =
    !r <= sz.warm_rounds || now () -. !t_start < seconds || !timed < sz.min_ops
  in
  while more () do
    if !r = sz.warm_rounds then begin
      t_start := now ();
      cache0 := Engine.compile_cache_stats ()
    end;
    let timed_round = !r >= sz.warm_rounds in
    List.iter
      (fun cell ->
        let plain () =
          let dt, out = attempt tally expected cell in
          if timed_round then begin
            lat := dt :: !lat;
            incr timed
          end;
          out
        in
        let in_trace () =
          Trace.start ();
          let dt, out = attempt tally expected cell in
          let evs = Trace.stop () in
          events := evs :: !events;
          if !r = 0 then round0_events := evs :: !round0_events;
          if timed_round then begin
            traced_s := !traced_s +. dt;
            match out with
            | Some (Cells.Cycles { image; _ }) ->
              let f = if String.starts_with ~prefix:"lto" image then lto else pibe in
              f.exec_ms <- f.exec_ms +. List.fold_left ( +. ) 0. (Ledger.durations_ms evs "bench:exec");
              f.insts <- f.insts + fst (Ledger.sim_totals evs)
            | _ -> ()
          end;
          out
        in
        let out =
          if not traced then plain ()
          else if !r mod 2 = 0 then (
            let out = in_trace () in
            ignore (plain ());
            out)
          else (
            let out = plain () in
            ignore (in_trace ());
            out)
        in
        if !r = 0 then Option.iter (fun o -> round0 := o :: !round0) out)
      (Cells.round workload s rng);
    incr r
  done;
  let hits0, misses0 = !cache0 in
  let hits1, misses1 = Engine.compile_cache_stats () in
  let hits = hits1 - hits0 and misses = misses1 - misses0 in
  let hit_ratio =
    if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses)
  in
  let ns_per_inst f = if f.insts = 0 then 0. else f.exec_ms *. 1e6 /. float_of_int f.insts in
  let plain_s = List.fold_left ( +. ) 0. !lat in
  let overhead = if plain_s > 0. then (!traced_s -. plain_s) /. plain_s *. 100. else 0. in
  {
    lat = !lat;
    rounds = !r - sz.warm_rounds;
    round0 = List.rev !round0;
    events = List.concat (List.rev !events);
    round0_events = List.concat (List.rev !round0_events);
    traced_metrics =
      [
        ("cpu.compile_cache_hit_ratio", hit_ratio, "ratio");
        ("cpu.ns_per_sim_inst.lto", ns_per_inst lto, "ns");
        ("cpu.ns_per_sim_inst.pibe", ns_per_inst pibe, "ns");
        ("trace.overhead_pct", overhead, "%");
      ];
  }

(* ------------------------------ metrics ------------------------------ *)

let or_zero = Option.value ~default:0.

let end_to_end workload ~setup_s ~lat tally =
  let sz = sizing workload in
  let lat_ms = List.map (fun s -> s *. 1000.) lat in
  [
    ("setup_s", Stats.median setup_s, "s");
    ("ops_per_s", float_of_int (List.length lat) /. List.fold_left ( +. ) 0. lat, "1/s");
    ("op_p50_ms", Stats.median lat_ms, "ms");
    ("op_tail_ms", Stats.percentile sz.tail_pct lat_ms, "ms");
    ("peak_rss_mb", peak_rss_mb (), "MB");
    ( "success_pct",
      100. *. float_of_int (tally.attempted - tally.failed) /. float_of_int tally.attempted,
      "%" );
  ]

(* [everything] is the rollup of this process's set-up and the timed
   phase; [samples] are the set-up repetitions. *)
let per_layer ~everything ~setup_events ~samples (t : timed) =
  let round0_events = t.round0_events and round0 = t.round0 in
  let pass = Ledger.of_events t.events in
  (* deterministic counts come from work whose history is fixed: this
     process's set-up and the first round of the stream *)
  let fixed = Ledger.of_events (setup_events @ round0_events) in
  let runs = float_of_int (max 1 (Ledger.count everything "pm:run")) in
  let per_run p = Ledger.total_ms_prefixed everything p /. runs in
  let insts, cycles = Ledger.sim_totals round0_events in
  let coverage, seams = Ledger.lowering t.events in
  let rebuilds, windows = Cells.rebuilds_and_windows round0 in
  let image_kb =
    match Ledger.image_bytes (setup_events @ round0_events) with
    | [] -> 0.
    | bs -> Stats.mean (List.map (fun b -> float_of_int b /. 1024.) bs)
  in
  [
    ("kernel.generate_s", Stats.median (List.map (fun x -> x.kernel_s) samples), "s");
    ("profile.collect_s", Stats.median (List.map (fun x -> x.profile_s) samples), "s");
    ("profile.alloc_mw", Ledger.alloc_mw_per_call fixed "profile", "Mw");
    ("pm.run_ms", Ledger.mean_ms everything "pm:run", "ms");
    ("pm.icp_ms", per_run "pass:icp", "ms");
    ("pm.inline_ms", per_run "pass:inline", "ms");
    ("pm.cleanup_ms", per_run "pass:cleanup", "ms");
    ("pm.harden_ms", per_run "pm:harden", "ms");
    ("pm.alloc_mw_per_op", Ledger.alloc_mw_per_call fixed "build", "Mw");
    ("pm.image_kb", image_kb, "KB");
    ("cpu.create_ms", Ledger.mean_ms pass "bench:create", "ms");
    ("cpu.exec_ms", Ledger.mean_ms pass "bench:exec", "ms");
    ( "cpu.alloc_mw_per_op",
      Ledger.alloc_mw_per_call fixed "create" +. Ledger.alloc_mw_per_call fixed "exec",
      "Mw" );
    ("cpu.sim_minsts", float_of_int insts /. 1e6, "Minst");
    ("cpu.sim_mcycles", float_of_int cycles /. 1e6, "Mcycle");
    ("cpu.tier3_inst_coverage", coverage, "ratio");
    ("cpu.call_fused_seams", seams, "count");
    ("sim.overhead_pct", or_zero (Cells.sim_overhead_pct round0), "%");
    ("online.deploy_ms", Ledger.mean_ms pass "bench:deploy", "ms");
    ("online.rebuilds", float_of_int rebuilds, "count");
    ("online.windows", float_of_int windows, "count");
    ( "online.window_self_ms",
      (let n = Ledger.count pass "online:window" in
       if n = 0 then 0. else Ledger.self_ms pass "online:window" /. float_of_int n),
      "ms" );
    ("online.rebuild_ms", Ledger.mean_ms pass "online:rebuild", "ms");
    ("online.alloc_mw_per_op", Ledger.alloc_mw_per_call fixed "deploy", "Mw");
  ]
  @ t.traced_metrics

let write_ledger ~workload ~seed ledger metrics =
  let dir = ".perfbench" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Printf.sprintf "%s/ledger-%s-seed%d.json" dir (Cells.workload_name workload) seed in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "{\"workload\": %S, \"seed\": %d,\n\"metrics\": {%s},\n\"ledger\": %s}\n"
        (Cells.workload_name workload) seed (metrics_json metrics) (Ledger.to_json ledger));
  path

(* ------------------------------- modes ------------------------------- *)

(* The reference table, read from the root of the repository. *)
let expected_path = "perfbench/expected.txt"

let run ~workload ~seed ~seconds ~trace =
  let expected = Cells.load_expected expected_path in
  let tally = { attempted = 0; failed = 0 } in
  let name = Cells.workload_name workload in
  let sz = sizing workload in
  Printf.printf "perfbench: workload %s, seed %d, %.0f s, trace %d\n%!" name seed seconds
    (if trace then 1 else 0);
  let before = children workload ~traced:trace in
  let s, dt, setup_events = timed_setup workload ~traced:trace in
  let t = timed_phase workload s expected ~seed ~seconds ~traced:trace tally in
  let samples = (sample_of dt setup_events :: before) @ children workload ~traced:trace in
  let setup_s = List.map (fun x -> x.total_s) samples in
  Printf.printf "set-up, %d repetitions (s):%s\n" (List.length samples)
    (String.concat "" (List.map (Printf.sprintf " %.4f") setup_s));
  let n = List.length t.lat in
  Printf.printf "timed: %d ops in %d rounds; tail = p%g (%d samples beyond it)\n" n t.rounds
    sz.tail_pct
    (n - int_of_float (Float.ceil (sz.tail_pct /. 100. *. float_of_int n)));
  let metrics =
    if not trace then begin
      Printf.printf "  %-28s %14.4f %s\n" "error_rate"
        (float_of_int tally.failed /. float_of_int tally.attempted)
        "ratio";
      (match workload with
      | Cells.Build ->
        Printf.printf "  %-28s %14.4f %s\n" "image_kb" (or_zero (Cells.image_kb t.round0)) "KB"
      | Cells.Execute | Cells.Online ->
        Printf.printf "  %-28s %14.4f %s\n" "sim_overhead_pct"
          (or_zero (Cells.sim_overhead_pct t.round0))
          "%");
      end_to_end workload ~setup_s ~lat:t.lat tally
    end
    else begin
      let everything = Ledger.of_events (setup_events @ t.events) in
      let metrics = per_layer ~everything ~setup_events ~samples t in
      print_string (Ledger.to_text everything);
      let path = write_ledger ~workload ~seed everything metrics in
      Printf.printf "ledger written to %s\n" path;
      metrics
    end
  in
  print_metrics metrics;
  print_endline (result_line ~correct:(tally.failed = 0) tally metrics)

let gen_expected path =
  Engine.set_default_backend Engine.Interp;
  let lines =
    List.concat_map
      (fun (name, workload) ->
        Printf.eprintf "perfbench: reference outputs for %s\n%!" name;
        let s = Cells.setup workload in
        List.map
          (fun (cell : Cells.cell) ->
            let out = cell.Cells.run () in
            (match out with
            | Cells.Image img -> Pibe_ir.Validate.check_exn img.Pibe_harden.Pass.prog
            | _ -> ());
            cell.Cells.key ^ " " ^ Cells.fingerprint out)
          (Cells.all_cells workload s))
      Cells.workloads
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        "# Reference outputs of every benchmark request, produced by the interpreter\n\
         # backend: perfbench/main.exe --gen-expected perfbench/expected.txt\n";
      List.iter (fun l -> output_string oc (l ^ "\n")) lines)

(* Perturbs the first request of each workload's stream in a copy of the
   reference table and checks that the run reports it as a failed
   operation, while the unperturbed table passes. *)
let self_test () =
  let expected = Cells.load_expected expected_path in
  let perturb key v =
    match String.split_on_char '/' key, String.split_on_char ' ' v with
    | "build" :: _, [ digest; protections; bytes ] ->
      Printf.sprintf "%s %s %d" digest protections (int_of_string bytes + 1)
    | "exec" :: _, [ c ] -> Printf.sprintf "%h" (float_of_string c +. 1.)
    | "online" :: _, total :: rest -> String.concat " " (string_of_int (int_of_string total + 1) :: rest)
    | _ -> invalid_arg ("self-test: unexpected reference entry " ^ key)
  in
  let ok =
    List.for_all
      (fun (name, workload) ->
        let s = Cells.setup workload in
        let cell = List.hd (Cells.round workload s (Rng.create 1)) in
        let tally = { attempted = 0; failed = 0 } in
        ignore (attempt tally expected cell);
        let clean = tally.failed = 0 in
        let bad = Hashtbl.copy expected in
        Hashtbl.replace bad cell.Cells.key (perturb cell.Cells.key (Hashtbl.find expected cell.Cells.key));
        ignore (attempt tally bad cell);
        let caught = tally.failed = 1 in
        Printf.printf "self-test %s: %s passes on the reference value: %b; perturbed value reported as a failure: %b\n"
          name cell.Cells.key clean caught;
        clean && caught)
      Cells.workloads
  in
  print_endline (if ok then "self-test passed" else "self-test FAILED");
  exit (if ok then 0 else 1)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 25. and trace = ref 0 in
  let gen = ref "" and selftest = ref false and setup_sample = ref false in
  let set_workload w =
    match List.assoc_opt w Cells.workloads with
    | Some x -> workload := Some x
    | None -> raise (Arg.Bad ("unknown workload " ^ w))
  in
  Arg.parse
    [
      ("--workload", Arg.String set_workload, " build | execute | online");
      ("--seed", Arg.Set_int seed, " seed of the request stream");
      ("--seconds", Arg.Set_float seconds, " length of the timed phase");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--gen-expected", Arg.Set_string gen, "FILE write the reference table (interpreter backend)");
      ("--self-test", Arg.Set selftest, " check that a perturbed reference value fails");
      ("--setup-sample", Arg.Set setup_sample, " time one set-up of --workload and print it");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload build|execute|online --seed N [--seconds 25] --trace 0|1";
  if !gen <> "" then gen_expected !gen
  else if !selftest then self_test ()
  else
    match !workload with
    | None ->
      prerr_endline "perfbench: --workload is required";
      exit 2
    | Some workload ->
      if !trace <> 0 && !trace <> 1 then (prerr_endline "perfbench: --trace is 0 or 1"; exit 2);
      if !setup_sample then begin
        let _, dt, evs = timed_setup workload ~traced:(!trace = 1) in
        let x = sample_of dt evs in
        Printf.printf "%h %h %h\n" x.total_s x.kernel_s x.profile_s
      end
      else run ~workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
