(* The Alcotest entry point shared by the test executables.  Every test
   case runs under a wall-clock timer, and each suite's total is printed,
   slowest first, when the process exits with Alcotest's status.  The
   totals print at exit because Alcotest exits by itself: with
   [~and_exit:false] it returns normally from a command-line usage error,
   so its status would be lost. *)

(* Seconds spent in each suite's test functions, in first-run order. *)
let wall : (string * float ref) list ref = ref []

let timed suite (name, speed, f) =
  let run () =
    let total =
      match List.assoc_opt suite !wall with
      | Some total -> total
      | None ->
          let total = ref 0.0 in
          wall := !wall @ [ (suite, total) ];
          total
    in
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () -> total := !total +. (Unix.gettimeofday () -. t0))
      f
  in
  (name, speed, run)

let print_wall () =
  if !wall <> [] then begin
    (* Alcotest writes through the Format formatters: flush them first. *)
    Format.pp_print_flush Format.std_formatter ();
    Format.pp_print_flush Format.err_formatter ();
    print_endline "\nsuite wall time, slowest first:";
    List.iter
      (fun (suite, total) -> Printf.printf "  %-32s %8.3f s\n" suite !total)
      (List.stable_sort (fun (_, a) (_, b) -> compare !b !a) !wall)
  end

let run name suites =
  at_exit print_wall;
  Alcotest.run name
    (List.map
       (fun (suite, cases) -> (suite, List.map (timed suite) cases))
       suites)
