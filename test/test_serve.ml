(* The daemon's supervision contract: every request — valid, malformed,
   oversized, over-quota, storm — ends in a correct design, a classified
   error response, or an explicit shed.  Never a hang, never an uncaught
   exception, never HTTP without a failure class. *)

module Serve = Db_serve.Serve
module Protocol = Db_serve.Protocol

let mlp = Db_workloads.Model_zoo.mlp_prototxt

let json_body fields =
  "{" ^ String.concat "," fields ^ "}"

let model_field = Printf.sprintf "\"model\":\"%s\"" (Protocol.json_escape mlp)

(* One ephemeral-port daemon per test; generous queue so only the tests
   that want shedding see it. *)
let with_daemon ?(config = Serve.default_config) f =
  let t = Serve.start { config with Serve.port = 0 } in
  Fun.protect ~finally:(fun () -> Serve.stop t) (fun () -> f (Serve.port t))

let get port path = Protocol.request ~port ~meth:"GET" ~path ()

let post port path ?headers body =
  Protocol.request ~port ~meth:"POST" ~path ?headers ~body ()

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let test_health_and_metrics () =
  with_daemon (fun port ->
      let status, body = get port "/health" in
      Alcotest.(check int) "health 200" 200 status;
      Alcotest.(check bool) "health ok" true (contains body "\"ok\"");
      let status, body = get port "/metrics" in
      Alcotest.(check int) "metrics 200" 200 status;
      Alcotest.(check bool) "metrics have request counter" true
        (contains body "serve.requests"))

let test_generate_ok () =
  with_daemon (fun port ->
      let status, body = post port "/generate" (json_body [ model_field ]) in
      Alcotest.(check int) "200" 200 status;
      Alcotest.(check bool) "has rtl sha" true (contains body "rtl_sha256");
      (* The daemon's answer must match an in-process generation bit for
         bit: same zoo model, same default constraints. *)
      let design =
        Db_core.Generator.generate
          (Db_core.Constraints.parse Serve.default_constraint_script)
          (Db_nn.Caffe.import_string mlp)
      in
      let expected = Db_store.Sha256.hex (Db_core.Design.verilog design) in
      Alcotest.(check bool) "byte-identical to in-memory path" true
        (contains body expected))

(* A dropout node changes the generated design, so the daemon must not
   answer the dropout variant with the plain network's cached design. *)
let test_generate_dropout_variant () =
  let mnist = Db_workloads.Model_zoo.mnist_prototxt in
  let with_dropout =
    String.split_on_char '\n' mnist
    |> List.concat_map (fun line ->
           if line = {|layers { name: "ip1" type: INNER_PRODUCT bottom: "pool2" top: "ip1"|}
           then
             [
               {|layers { name: "drop" type: DROPOUT bottom: "pool2" top: "drop" }|};
               {|layers { name: "ip1" type: INNER_PRODUCT bottom: "drop" top: "ip1"|};
             ]
           else [ line ])
    |> String.concat "\n"
  in
  Alcotest.(check bool) "dropout inserted" false (String.equal mnist with_dropout);
  let field model =
    Printf.sprintf "\"model\":\"%s\"" (Protocol.json_escape model)
  in
  with_daemon (fun port ->
      let status, _ = post port "/generate" (json_body [ field mnist ]) in
      Alcotest.(check int) "mnist 200" 200 status;
      let status, body = post port "/generate" (json_body [ field with_dropout ]) in
      Alcotest.(check int) "dropout variant 200" 200 status;
      let design =
        Db_core.Generator.generate
          (Db_core.Constraints.parse Serve.default_constraint_script)
          (Db_nn.Caffe.import_string with_dropout)
      in
      let expected = Db_store.Sha256.hex (Db_core.Design.verilog design) in
      Alcotest.(check bool) "dropout variant's own design" true
        (contains body expected))

let test_simulate_ok () =
  with_daemon (fun port ->
      let status, body =
        post port "/simulate" (json_body [ model_field; "\"samples\":1" ])
      in
      Alcotest.(check int) "200" 200 status;
      Alcotest.(check bool) "has cycles" true (contains body "total_cycles");
      Alcotest.(check bool) "has output digest" true
        (contains body "output_sha256"))

(* The collector counters on /metrics are the whole process's: present,
   and never falling between two scrapes around a simulation. *)
let test_gc_metrics () =
  with_daemon (fun port ->
      let gc_counters () =
        let status, body = get port "/metrics" in
        Alcotest.(check int) "metrics 200" 200 status;
        List.map
          (fun name ->
            let line =
              List.find_opt
                (fun l -> String.starts_with ~prefix:(name ^ " ") l)
                (String.split_on_char '\n' body)
            in
            match line with
            | Some l ->
                (name, int_of_string (String.sub l (String.length name + 1)
                                        (String.length l - String.length name - 1)))
            | None -> Alcotest.failf "/metrics has no %s line" name)
          [ "gc.minor_collections"; "gc.major_collections"; "gc.minor_words";
            "gc.major_words" ]
      in
      let before = gc_counters () in
      let status, _ =
        post port "/simulate" (json_body [ model_field; "\"samples\":4" ])
      in
      Alcotest.(check int) "simulate 200" 200 status;
      let after = gc_counters () in
      List.iter2
        (fun (name, b) (_, a) ->
          if a < b then Alcotest.failf "%s fell from %d to %d" name b a)
        before after)

(* Malformed inputs at every layer answer a classified 4xx, not a 500. *)
let test_malformed_http () =
  with_daemon (fun port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd
        (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
      let junk = "this is not http\r\n\r\n" in
      ignore (Unix.write_substring fd junk 0 (String.length junk));
      let buf = Bytes.create 4096 in
      let n = Unix.read fd buf 0 4096 in
      Unix.close fd;
      let resp = Bytes.sub_string buf 0 n in
      Alcotest.(check bool) "400" true (contains resp "400");
      Alcotest.(check bool) "classified" true (contains resp "\"class\""))

let test_malformed_json () =
  with_daemon (fun port ->
      let status, body = post port "/generate" "{not json" in
      Alcotest.(check int) "400" 400 status;
      Alcotest.(check bool) "parse class" true (contains body "\"parse\""))

let test_malformed_model () =
  with_daemon (fun port ->
      let status, body =
        post port "/generate" (json_body [ "\"model\":\"layer { oops\"" ])
      in
      Alcotest.(check int) "400" 400 status;
      Alcotest.(check bool) "parse class" true (contains body "\"parse\""))

let test_bad_field_type () =
  with_daemon (fun port ->
      let status, body = post port "/generate" (json_body [ "\"model\":5" ]) in
      Alcotest.(check int) "422" 422 status;
      Alcotest.(check bool) "validation class" true
        (contains body "\"validation\""))

let test_oversized () =
  with_daemon
    ~config:{ Serve.default_config with Serve.max_body = 64 }
    (fun port ->
      let status, body =
        post port "/generate" (json_body [ model_field ])
      in
      Alcotest.(check int) "413" 413 status;
      Alcotest.(check bool) "explains the cap" true (contains body "cap"))

let test_unknown_path () =
  with_daemon (fun port ->
      let status, _ = post port "/nothing-here" "{}" in
      Alcotest.(check int) "404" 404 status)

let test_method_not_allowed () =
  with_daemon (fun port ->
      let status, _ = get port "/generate" in
      Alcotest.(check int) "405" 405 status)

(* Watchdog: an impossible cycle budget must answer 504, classified. *)
let test_watchdog_504 () =
  with_daemon (fun port ->
      let status, body =
        post port "/simulate"
          (json_body [ model_field; "\"samples\":1"; "\"cycle_budget\":1" ])
      in
      Alcotest.(check int) "504" 504 status;
      Alcotest.(check bool) "watchdog class" true (contains body "watchdog"))

(* Out of memory answers 507, a status no other failure class or
   admission decision uses. *)
let test_memory_507 () =
  let module E = Db_util.Error in
  Alcotest.(check int) "507" 507 (Serve.status_of_class E.Memory);
  let others =
    List.map Serve.status_of_class
      [ E.Parse; E.Validation; E.Resource; E.Simulation; E.Watchdog; E.Io;
        E.Internal ]
  in
  Alcotest.(check bool) "status of its own" true
    (not (List.mem 507 (others @ [ 413; 429; 503 ])));
  Alcotest.(check string) "reason phrase" "Insufficient Storage"
    (Protocol.status_text 507)

(* Per-client quota: more simultaneous connections than the quota from
   one client identity must produce at least one 429.  Connections are
   held open (headers sent, body withheld) so they occupy worker slots. *)
let test_quota () =
  with_daemon
    ~config:{ Serve.default_config with Serve.per_client_quota = 1; workers = 4 }
    (fun port ->
      (* Slow enough (hundreds of functional samples) that the four
         requests genuinely overlap in the workers. *)
      let body = json_body [ model_field; "\"samples\":400" ] in
      let results = Array.make 4 (-1) in
      let domains =
        List.init 4 (fun i ->
            Domain.spawn (fun () ->
                let status, _ =
                  post port "/simulate"
                    ~headers:[ ("x-client", "greedy") ]
                    body
                in
                results.(i) <- status))
      in
      List.iter Domain.join domains;
      let ok = Array.to_list results |> List.filter (( = ) 200) in
      let rejected = Array.to_list results |> List.filter (( = ) 429) in
      Alcotest.(check bool) "someone succeeded" true (List.length ok >= 1);
      Alcotest.(check bool)
        (Printf.sprintf "someone hit the quota (saw %s)"
           (String.concat ","
              (Array.to_list results |> List.map string_of_int)))
        true
        (List.length rejected >= 1);
      List.iter
        (fun s -> Alcotest.(check bool) "only 200 or 429" true (s = 200 || s = 429))
        (Array.to_list results))

(* Request storm against a tiny daemon: every connection must resolve to
   a definite status — 200, a shed 503, or a quota 429 — within the test
   timeout.  Nothing hangs, nothing leaks an unclassified 500. *)
let test_storm () =
  with_daemon
    ~config:
      {
        Serve.default_config with
        Serve.workers = 2;
        queue_capacity = 2;
        per_client_quota = 2;
      }
    (fun port ->
      let n = 16 in
      let results = Array.make n (-1) in
      let domains =
        List.init n (fun i ->
            Domain.spawn (fun () ->
                let status, _ =
                  post port "/generate"
                    ~headers:[ ("x-client", Printf.sprintf "c%d" (i mod 4)) ]
                    (json_body [ model_field ])
                in
                results.(i) <- status))
      in
      List.iter Domain.join domains;
      Array.iteri
        (fun i s ->
          Alcotest.(check bool)
            (Printf.sprintf "request %d resolved acceptably (got %d)" i s)
            true
            (List.mem s [ 200; 503; 429 ]))
        results)

(* Stop drains: queued work is finished, not dropped, and stop returns. *)
let test_stop_drains () =
  let t = Serve.start { Serve.default_config with Serve.port = 0 } in
  let port = Serve.port t in
  let d =
    Domain.spawn (fun () ->
        Protocol.request ~port ~meth:"POST" ~path:"/generate"
          ~body:(json_body [ model_field ]) ())
  in
  (* Give the connection time to be accepted, then stop underneath it. *)
  Unix.sleepf 0.2;
  Serve.stop t;
  let status, _ = Domain.join d in
  Alcotest.(check int) "in-flight request completed through stop" 200 status;
  let requests, ok, _, _ = Serve.stats t in
  Alcotest.(check bool) "drained and counted" true (requests >= 1 && ok >= 1)

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "health and metrics" `Quick test_health_and_metrics;
        Alcotest.test_case "generate matches in-memory path" `Quick
          test_generate_ok;
        Alcotest.test_case "simulate" `Quick test_simulate_ok;
        Alcotest.test_case "gc counters on metrics" `Quick test_gc_metrics;
        Alcotest.test_case "malformed http is 400" `Quick test_malformed_http;
        Alcotest.test_case "malformed json is 400" `Quick test_malformed_json;
        Alcotest.test_case "malformed model is 400" `Quick test_malformed_model;
        Alcotest.test_case "bad field type is 422" `Quick test_bad_field_type;
        Alcotest.test_case "oversized body is 413" `Quick test_oversized;
        Alcotest.test_case "unknown path is 404" `Quick test_unknown_path;
        Alcotest.test_case "method not allowed is 405" `Quick
          test_method_not_allowed;
        Alcotest.test_case "watchdog timeout is 504" `Quick test_watchdog_504;
        Alcotest.test_case "per-client quota is 429" `Quick test_quota;
        Alcotest.test_case "storm resolves every request" `Slow test_storm;
        Alcotest.test_case "stop drains in-flight work" `Quick test_stop_drains;
        Alcotest.test_case "dropout variant is its own design" `Quick
          test_generate_dropout_variant;
        Alcotest.test_case "out of memory is 507" `Quick test_memory_507;
      ] );
  ]
