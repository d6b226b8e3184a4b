(* The command-line front end at its input boundary: a bad profile file
   given to `optimize --profile` is a usage error (exit 2) that names the
   file, the line when there is one, and the reason. *)

let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/pibe_cli.exe"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1)) in
  go 0

(* Runs `optimize --profile path`, returning (exit code, stderr). *)
let optimize_with path =
  let err = Filename.temp_file "pibe_cli" ".err" in
  let out = Filename.temp_file "pibe_cli" ".ir" in
  let code =
    Sys.command
      (Filename.quote_command cli ~stdout:Filename.null ~stderr:err
         [ "optimize"; "--scale"; "1"; "--profile"; path; "--out"; out ])
  in
  let stderr = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  Sys.remove out;
  (code, stderr)

let with_profile_file text f =
  let path = Filename.temp_file "pibe_profile" ".txt" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let check_usage_error ~what (code, stderr) needles =
  Alcotest.(check int) (what ^ ": exit code") 2 code;
  List.iter
    (fun n ->
      if not (contains stderr n) then Alcotest.failf "%s: stderr %S lacks %S" what stderr n)
    needles

let test_malformed_line () =
  with_profile_file "profile {\n  direct 1 = 5\n  direct x = 1\n}\n" (fun path ->
      check_usage_error ~what:"malformed" (optimize_with path)
        [ path ^ ":3:"; "malformed line: direct x = 1" ])

let test_negative_count () =
  with_profile_file "profile {\n  entry @f = 3\n  vp 4 @g = -2\n}\n" (fun path ->
      check_usage_error ~what:"negative" (optimize_with path)
        [ path ^ ":3:"; "negative count: vp 4 @g = -2" ])

let test_missing_file () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "pibe-no-such-profile.txt" in
  check_usage_error ~what:"missing" (optimize_with path)
    [ path ^ ": cannot read profile: No such file or directory" ]

let suite =
  [
    ("optimize: malformed profile line", `Quick, test_malformed_line);
    ("optimize: negative profile count", `Quick, test_negative_count);
    ("optimize: missing profile file", `Quick, test_missing_file);
  ]
