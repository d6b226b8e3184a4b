(* The layer ledger: self-time and allocation rollup of a trace.

   A span's self time is its duration minus the part covered by its
   child spans.  Spans are grouped twice: by full name ([pass:cleanup])
   and by prefix, the part before the first ':' ([pass]), which is the
   layer.  Allocation comes from the [bench:alloc] counters the
   benchmark emits after each of its own layer calls (see [Cells.call]);
   the program's own spans carry no allocation. *)

module Trace = Pibe_trace.Trace

type row = {
  mutable count : int;
  mutable incl_ns : float;
  mutable self_ns : float;
  mutable alloc_words : float;
}

type t = {
  by_name : (string, row) Hashtbl.t;
  by_prefix : (string, row) Hashtbl.t;
}

let row tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> r
  | None ->
    let r = { count = 0; incl_ns = 0.; self_ns = 0.; alloc_words = 0. } in
    Hashtbl.replace tbl key r;
    r

let prefix name =
  match String.index_opt name ':' with
  | Some i -> String.sub name 0 i
  | None -> name

let int_arg key (ev : Trace.event) =
  match List.assoc_opt key ev.Trace.args with
  | Some (Trace.Int v) -> Some v
  | _ -> None

(* The rollup of one collected stream (single domain, emission order).
   Spans left by an exception still get their End event from
   [Trace.span], so the stack always unwinds. *)
let of_events (events : Trace.event list) =
  let t = { by_name = Hashtbl.create 64; by_prefix = Hashtbl.create 16 } in
  let stack = ref [] in
  List.iter
    (fun (ev : Trace.event) ->
      match ev.Trace.ph with
      | Trace.Begin -> stack := (ev.Trace.name, ev.Trace.ts_ns, ref 0.) :: !stack
      | Trace.End -> (
        match !stack with
        | (name, t0, child) :: rest ->
          stack := rest;
          let span_ns = Int64.to_float (Int64.sub ev.Trace.ts_ns t0) in
          (match rest with
          | (_, _, parent_child) :: _ -> parent_child := !parent_child +. span_ns
          | [] -> ());
          let add_to r ~incl =
            r.count <- r.count + 1;
            r.incl_ns <- r.incl_ns +. incl;
            r.self_ns <- r.self_ns +. (span_ns -. !child)
          in
          add_to (row t.by_name name) ~incl:span_ns;
          (* a layer's inclusive time counts its outermost spans only *)
          let p = prefix name in
          let nested = List.exists (fun (n, _, _) -> prefix n = p) rest in
          add_to (row t.by_prefix p) ~incl:(if nested then 0. else span_ns)
        | [] -> ())
      | Trace.Counter when ev.Trace.name = "bench:alloc" -> (
        match (List.assoc_opt "layer" ev.Trace.args, int_arg "words" ev) with
        | Some (Trace.Str layer), Some w ->
          let name = "bench:" ^ layer in
          List.iter
            (fun r -> r.alloc_words <- r.alloc_words +. float_of_int w)
            [ row t.by_name name; row t.by_prefix "bench" ]
        | _ -> ())
      | Trace.Counter | Trace.Instant -> ())
    events;
  t

(* Inclusive milliseconds of every span named [name], in end order. *)
let durations_ms events name =
  let stack = ref [] and out = ref [] in
  List.iter
    (fun (ev : Trace.event) ->
      if ev.Trace.name = name then
        match (ev.Trace.ph, !stack) with
        | Trace.Begin, _ -> stack := ev.Trace.ts_ns :: !stack
        | Trace.End, t0 :: rest ->
          stack := rest;
          out := (Int64.to_float (Int64.sub ev.Trace.ts_ns t0) /. 1e6) :: !out
        | _ -> ())
    events;
  List.rev !out

let find t name = Hashtbl.find_opt t.by_name name

let count t name = match find t name with Some r -> r.count | None -> 0

(* Mean inclusive milliseconds per span of this name; 0 when absent. *)
let mean_ms t name =
  match find t name with
  | Some r when r.count > 0 -> r.incl_ns /. float_of_int r.count /. 1e6
  | _ -> 0.

let self_ms t name = match find t name with Some r -> r.self_ns /. 1e6 | None -> 0.

(* Sum of inclusive time over every span whose name starts with [p]. *)
let total_ms_prefixed t p =
  Hashtbl.fold
    (fun name r acc ->
      if String.starts_with ~prefix:p name then acc +. (r.incl_ns /. 1e6) else acc)
    t.by_name 0.

(* Mean mega-words allocated per [bench:<layer>] call; 0 when absent. *)
let alloc_mw_per_call t layer =
  match find t ("bench:" ^ layer) with
  | Some r when r.count > 0 -> r.alloc_words /. float_of_int r.count /. 1e6
  | _ -> 0.

(* Sums of the [insts] and [cycles] arguments over the engine samples of
   measured and deployed machines ([measure]- and [online]-category
   counters; each sample is cumulative for one fresh engine). *)
let sim_totals events =
  List.fold_left
    (fun (insts, cycles) (ev : Trace.event) ->
      match ev.Trace.ph with
      | Trace.Counter when ev.Trace.cat = "measure" || ev.Trace.cat = "online" -> (
        match (int_arg "insts" ev, int_arg "cycles" ev) with
        | Some i, Some c -> (insts + i, cycles + c)
        | _ -> (insts, cycles))
      | _ -> (insts, cycles))
    (0, 0) events

(* Lowering statistics of the compiled backend, from the ["sched"]
   [*:lowering] samples: tier-3 coded/total instructions summed over
   samples, and the mean count of fused call seams per sample. *)
let lowering events =
  let coded = ref 0 and total = ref 0 and seams = ref 0 and n = ref 0 in
  List.iter
    (fun (ev : Trace.event) ->
      if ev.Trace.ph = Trace.Counter && String.ends_with ~suffix:":lowering" ev.Trace.name
      then begin
        incr n;
        let get k = Option.value ~default:0 (int_arg k ev) in
        coded := !coded + get "tier3-coded-insts";
        total := !total + get "tier3-total-insts";
        seams := !seams + get "call-fused-seams"
      end)
    events;
  let coverage = if !total = 0 then 0. else float_of_int !coded /. float_of_int !total in
  let seams = if !n = 0 then 0. else float_of_int !seams /. float_of_int !n in
  (coverage, seams)

(* Image bytes reported by every [pm:harden] ([hardened] counters). *)
let image_bytes events =
  List.filter_map
    (fun (ev : Trace.event) ->
      if ev.Trace.ph = Trace.Counter && ev.Trace.name = "hardened" then
        int_arg "image_bytes" ev
      else None)
    events

(* Rows by decreasing self time. *)
let sorted tbl =
  List.sort
    (fun (_, a) (_, b) -> compare b.self_ns a.self_ns)
    (Hashtbl.fold (fun k r acc -> (k, r) :: acc) tbl [])

let rows_json tbl =
  String.concat ",\n    "
    (List.map
       (fun (k, r) ->
         Printf.sprintf
           "{\"span\": %S, \"count\": %d, \"self_ms\": %.3f, \"incl_ms\": %.3f, \"alloc_mw\": %.6f}"
           k r.count (r.self_ns /. 1e6) (r.incl_ns /. 1e6) (r.alloc_words /. 1e6))
       (sorted tbl))

let to_json t =
  Printf.sprintf "{\n  \"by_prefix\": [\n    %s\n  ],\n  \"by_name\": [\n    %s\n  ]\n}"
    (rows_json t.by_prefix) (rows_json t.by_name)

(* The by-prefix rows as an aligned table. *)
let to_text t =
  String.concat ""
    (Printf.sprintf "%-10s %8s %12s %12s %10s\n" "layer" "spans" "self_ms" "incl_ms" "alloc_mw"
    :: List.map
         (fun (k, r) ->
           Printf.sprintf "%-10s %8d %12.1f %12.1f %10.3f\n" k r.count (r.self_ns /. 1e6)
             (r.incl_ns /. 1e6) (r.alloc_words /. 1e6))
         (sorted t.by_prefix))
