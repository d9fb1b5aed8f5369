module Minijson = Db_util.Minijson

let duration_str s =
  if s >= 1.0 then Printf.sprintf "%.3f s" s
  else if s >= 1e-3 then Printf.sprintf "%.3f ms" (s *. 1e3)
  else Printf.sprintf "%.1f us" (s *. 1e6)

let attrs_str attrs =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) attrs)

let text (snap : Obs.snapshot) =
  let buf = Buffer.create 2048 in
  let rec span indent (sp : Obs.span) =
    Printf.bprintf buf "%s%-*s %10s%s\n" indent
      (Stdlib.max 1 (32 - String.length indent))
      sp.Obs.span_name
      (duration_str sp.Obs.dur_s)
      (match sp.Obs.attrs with
      | [] -> ""
      | attrs -> "  [" ^ attrs_str attrs ^ "]");
    List.iter (span (indent ^ "  ")) sp.Obs.children
  in
  if snap.Obs.roots <> [] then begin
    Buffer.add_string buf "spans:\n";
    List.iter (span "  ") snap.Obs.roots
  end;
  if snap.Obs.counters <> [] then begin
    Buffer.add_string buf "counters:\n";
    let w =
      List.fold_left
        (fun acc (n, _) -> Stdlib.max acc (String.length n))
        0 snap.Obs.counters
    in
    List.iter
      (fun (name, v) -> Printf.bprintf buf "  %-*s %d\n" w name v)
      snap.Obs.counters
  end;
  if snap.Obs.histograms <> [] then begin
    Buffer.add_string buf "histograms:\n";
    List.iter
      (fun (name, (h : Obs.hist)) ->
        Printf.bprintf buf "  %s: n=%d sum=%s min=%s max=%s\n" name h.Obs.h_count
          (duration_str h.Obs.h_sum) (duration_str h.Obs.h_min)
          (duration_str h.Obs.h_max))
      snap.Obs.histograms
  end;
  Buffer.contents buf

(* Deterministic content: structure and counts only, no clocks. *)
let stable_json (snap : Obs.snapshot) =
  let buf = Buffer.create 2048 in
  let rec span (sp : Obs.span) =
    Printf.bprintf buf "{\"name\": \"%s\"" (Minijson.escape sp.Obs.span_name);
    if sp.Obs.attrs <> [] then begin
      Buffer.add_string buf ", \"attrs\": {";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          Printf.bprintf buf "\"%s\": \"%s\"" (Minijson.escape k)
            (Minijson.escape v))
        sp.Obs.attrs;
      Buffer.add_string buf "}"
    end;
    if sp.Obs.children <> [] then begin
      Buffer.add_string buf ", \"children\": [";
      List.iteri
        (fun i c ->
          if i > 0 then Buffer.add_string buf ", ";
          span c)
        sp.Obs.children;
      Buffer.add_string buf "]"
    end;
    Buffer.add_string buf "}"
  in
  Buffer.add_string buf "{\n  \"spans\": [";
  List.iteri
    (fun i sp ->
      if i > 0 then Buffer.add_string buf ", ";
      span sp)
    snap.Obs.roots;
  Buffer.add_string buf "],\n  \"counters\": {";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_string buf ", ";
      Printf.bprintf buf "\"%s\": %d" (Minijson.escape name) v)
    snap.Obs.counters;
  Buffer.add_string buf "},\n  \"histogram_counts\": {";
  List.iteri
    (fun i (name, (h : Obs.hist)) ->
      if i > 0 then Buffer.add_string buf ", ";
      Printf.bprintf buf "\"%s\": %d" (Minijson.escape name) h.Obs.h_count)
    snap.Obs.histograms;
  Buffer.add_string buf "}\n}\n";
  Buffer.contents buf

(* Chrome trace_event "complete" (ph:X) events, one per span, one tid per
   recording domain; timestamps in microseconds relative to the earliest
   span so Perfetto shows the run starting at t=0. *)
let chrome_trace (snap : Obs.snapshot) =
  let rec min_start acc (sp : Obs.span) =
    List.fold_left min_start (Stdlib.min acc sp.Obs.start_s) sp.Obs.children
  in
  let base = List.fold_left min_start infinity snap.Obs.roots in
  let base = if base = infinity then 0.0 else base in
  let events = ref [] in
  let rec collect (sp : Obs.span) =
    events := sp :: !events;
    List.iter collect sp.Obs.children
  in
  List.iter collect snap.Obs.roots;
  let events =
    List.sort
      (fun (a : Obs.span) b -> compare (a.Obs.start_s, a.Obs.span_name) (b.Obs.start_s, b.Obs.span_name))
      !events
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[";
  List.iteri
    (fun i (sp : Obs.span) ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf "\n";
      Printf.bprintf buf
        "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \
         \"ts\": %.3f, \"dur\": %.3f"
        (Minijson.escape sp.Obs.span_name)
        sp.Obs.domain
        (Stdlib.max 0.0 ((sp.Obs.start_s -. base) *. 1e6))
        (Stdlib.max 0.0 (sp.Obs.dur_s *. 1e6));
      if sp.Obs.attrs <> [] then begin
        Buffer.add_string buf ", \"args\": {";
        List.iteri
          (fun j (k, v) ->
            if j > 0 then Buffer.add_string buf ", ";
            Printf.bprintf buf "\"%s\": \"%s\"" (Minijson.escape k)
              (Minijson.escape v))
          sp.Obs.attrs;
        Buffer.add_string buf "}"
      end;
      Buffer.add_string buf "}")
    events;
  (* Counters ride along as one summary instant event so a trace opened in
     Perfetto still carries them. *)
  if snap.Obs.counters <> [] then begin
    if events <> [] then Buffer.add_string buf ",";
    Buffer.add_string buf "\n  {\"name\": \"counters\", \"ph\": \"i\", \"pid\": 1, \"tid\": 0, \"ts\": 0.0, \"s\": \"g\", \"args\": {";
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        Printf.bprintf buf "\"%s\": %d" (Minijson.escape name) v)
      snap.Obs.counters;
    Buffer.add_string buf "}}"
  end;
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf
