exception Deepburning_error of string

exception Timeout of { component : string; cycles : int; budget : int }

let fail fmt = Format.kasprintf (fun msg -> raise (Deepburning_error msg)) fmt

let failf_at ~component fmt =
  Format.kasprintf
    (fun msg -> raise (Deepburning_error (component ^ ": " ^ msg)))
    fmt

let timeout ~component ~cycles ~budget =
  raise (Timeout { component; cycles; budget })

(* File-system work raises raw [Sys_error]/[End_of_file], which bypasses
   the per-component classification below (library users catching
   [Deepburning_error] never see them).  Running it under [protect_io]
   rewraps those into a classified error carrying an io-* component, so
   the CLI's Io exit code and the server's structured responses fire. *)
let protect_io ~component f =
  try f () with
  | Sys_error msg -> failf_at ~component "%s" msg
  | End_of_file -> failf_at ~component "unexpected end of file"

type failure_class =
  | Parse
  | Validation
  | Resource
  | Simulation
  | Watchdog
  | Io
  | Memory
  | Internal

let registry : (string, failure_class) Hashtbl.t = Hashtbl.create 64

let register_component name cls = Hashtbl.replace registry name cls

(* Default classification of every component prefix used across the
   repository; libraries introducing new components may register theirs. *)
let () =
  List.iter
    (fun (c, cls) -> register_component c cls)
    [
      ("prototxt", Parse);
      ("json", Parse);
      ("caffe", Parse);
      ("constraints", Parse);
      ("network", Validation);
      ("tensor", Validation);
      ("params", Validation);
      ("shape-infer", Validation);
      ("quantized", Validation);
      ("ir-interp", Validation);
      ("access-pattern", Validation);
      ("block", Validation);
      ("fsm", Validation);
      ("rtl", Validation);
      ("verilog-lint", Validation);
      ("rtl-analysis", Validation);
      ("folding", Validation);
      ("datapath", Validation);
      ("buffer-model", Validation);
      ("tiling", Validation);
      ("dram", Validation);
      ("calibration", Validation);
      ("timing", Validation);
      ("testbench", Validation);
      ("axbench", Validation);
      ("interval", Validation);
      ("range-check", Validation);
      ("mem-check", Validation);
      ("check", Validation);
      ("lut-set", Validation);
      ("config-search", Resource);
      ("generator", Resource);
      ("compiler", Resource);
      ("agu-sim", Simulation);
      ("control-playback", Simulation);
      ("simulator", Simulation);
      ("trainer", Simulation);
      ("backprop", Simulation);
      ("ir-lower", Validation);
      ("train-sched", Validation);
      ("act-cache", Validation);
      ("train-builder", Resource);
      ("train-sim", Simulation);
      ("train-campaign", Simulation);
      ("fault", Simulation);
      ("serve-request", Validation);
      ("io-prototxt", Io);
      ("io-report", Io);
      ("io-testbench", Io);
      ("io-cli", Io);
      ("io-store", Io);
      ("io-serve", Io);
    ]

let classify_message msg =
  match String.index_opt msg ':' with
  | None -> Internal
  | Some i -> (
      match Hashtbl.find_opt registry (String.sub msg 0 i) with
      | Some cls -> cls
      | None -> Internal)

let classify_exn = function
  | Deepburning_error msg -> Some (classify_message msg)
  | Timeout _ -> Some Watchdog
  | Sys_error _ -> Some Io
  | Out_of_memory -> Some Memory
  | _ -> None

let exit_code = function
  | Internal -> 1
  | Parse -> 3
  | Validation -> 4
  | Resource -> 5
  | Simulation -> 6
  | Watchdog -> 7
  | Io -> 8
  | Memory -> 9

let class_name = function
  | Parse -> "parse"
  | Validation -> "validation"
  | Resource -> "resource"
  | Simulation -> "simulation"
  | Watchdog -> "watchdog"
  | Io -> "io"
  | Memory -> "memory"
  | Internal -> "internal"

let message_of_exn = function
  | Deepburning_error msg -> Some msg
  | Timeout { component; cycles; budget } ->
      Some
        (Printf.sprintf
           "%s: watchdog timeout after %d cycles (budget %d): the machine \
            never reached its done state"
           component cycles budget)
  | Sys_error msg -> Some msg
  | Out_of_memory ->
      Some "out of memory: the run needs more than the process may allocate"
  | _ -> None
