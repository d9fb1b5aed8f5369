(* CLI exit-code smoke (the @cli alias): run the real binary on passing and
   failing inputs and pin the exit code of each failure class, so a
   regression that turns a classified failure into a crash (125), an
   unclassified error (1) or a silent success shows up.

     cli_smoke.exe DEEPBURNING_EXE

   Fixtures live in cli/; the AlexNet RTL digest is checked against the
   golden_ir/zoo_rtl.md5 pin.  Exits non-zero on any violation. *)

let failures = ref 0

let check name ok =
  if ok then Printf.printf "ok    %s\n%!" name
  else begin
    Printf.printf "FAIL  %s\n%!" name;
    incr failures
  end

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Run the binary with [args]; stdout and stderr go to files so large RTL
   never blocks a pipe.  Returns the exit code and the stderr text. *)
let run exe args =
  let create path = Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let out = create "cli_smoke.stdout" and err = create "cli_smoke.stderr" in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out err
  in
  Unix.close out;
  Unix.close err;
  let code =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED c -> c
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> 1000 + s
  in
  (code, read_file "cli_smoke.stderr")

let expect exe ?stderr_has code args =
  let got, err = run exe args in
  let name = Printf.sprintf "exit %d: %s" code (String.concat " " args) in
  check
    (if got = code then name else Printf.sprintf "%s (got %d)" name got)
    (got = code && Option.fold ~none:true ~some:(contains err) stderr_has)

let () =
  let exe = Sys.argv.(1) in
  (* Passing run, zoo-name spelling; the RTL must match the pinned digest. *)
  expect exe 0 [ "generate"; "-m"; "alexnet"; "-o"; "alexnet.v" ];
  let pin =
    List.find_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "alexnet"; md5 ] -> Some md5
        | _ -> None)
      (String.split_on_char '\n' (read_file "golden_ir/zoo_rtl.md5"))
  in
  check "alexnet RTL matches zoo_rtl.md5"
    (Sys.file_exists "alexnet.v"
    && pin = Some (Digest.to_hex (Digest.file "alexnet.v")));
  (* One failure per class the CLI can reach from user input. *)
  let parse_msg = "prototxt: syntax error" in
  expect exe 3 ~stderr_has:parse_msg
    [ "generate"; "-m"; "cli/truncated.prototxt" ];
  expect exe 4 ~stderr_has:"group must be positive"
    [ "generate"; "-m"; "cli/alexnet_group0.prototxt" ];
  (* One LRN unit holds one power table: two (beta, k) pairs are refused. *)
  expect exe 4 ~stderr_has:"different (beta, k) pairs"
    [ "generate"; "-m"; "cli/lrn_mixed_beta.prototxt" ];
  expect exe 8 ~stderr_has:"io-cli" [ "generate"; "-m"; "mlp"; "-o"; "." ];
  expect exe 6 ~stderr_has:"fault rate must be"
    [ "faults"; "--net"; "ann0"; "--rates"; "inf" ];
  (* RECURRENT lowers for training and the step is priced, but the software
     trainer the loss comparison runs cannot back-propagate through it: a
     classified simulation failure, never an internal error. *)
  List.iter
    (fun (m, layer) ->
      expect exe 6
        ~stderr_has:(Printf.sprintf "trainer: layer \"%s\" (RECURRENT)" layer)
        [ "train-hw"; m; "--epochs"; "1"; "--samples"; "4" ])
    [ ("cmac", "smooth"); ("hopfield", "relax") ];
  (* A trace that cannot be written is an io failure on a passing run; on a
     failing run the run's own failure wins. *)
  let trace = [ "--trace"; "no-such-dir/t.json" ] in
  expect exe 8 ~stderr_has:"io-cli" ([ "zoo"; "list" ] @ trace);
  expect exe 8 ~stderr_has:"io-cli" ([ "generate"; "-m"; "mlp" ] @ trace);
  expect exe 3 ~stderr_has:parse_msg
    ([ "generate"; "-m"; "cli/truncated.prototxt" ] @ trace);
  (* User mistakes are usage errors, whatever the MODEL slot. *)
  let unknown = "is neither a zoo model nor a file" in
  expect exe 124 ~stderr_has:unknown [ "generate"; "-m"; "nosuch" ];
  expect exe 124 ~stderr_has:unknown [ "ir"; "nosuch" ];
  expect exe 124 ~stderr_has:unknown [ "faults"; "--net"; "nosuch" ];
  expect exe 124 [ "faults"; "--net"; "ann0"; "--engine"; "generic" ];
  expect exe 124 ~stderr_has:"pass --model FILE or --zoo" [ "lint" ];
  expect exe 124 ~stderr_has:"pass --model FILE or --zoo" [ "check" ];
  expect exe 124 ~stderr_has:"missing model name" [ "zoo"; "show" ];
  expect exe 124 ~stderr_has:"unknown zoo model" [ "zoo"; "show"; "nosuch" ];
  if !failures > 0 then begin
    Printf.printf "%d CLI smoke check(s) failed\n" !failures;
    exit 1
  end
