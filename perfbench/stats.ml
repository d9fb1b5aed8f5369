(* Order statistics over op latencies and design properties. *)

let sorted a =
  let c = Array.copy a in
  Array.sort compare c;
  c

(* Linear-interpolated quantile, [q] in [0, 1]. *)
let quantile a q =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = quantile a 0.5

(* The highest percentile with at least ten samples beyond it: the 11th
   largest sample, at percentile 100 (n - 10) / n.  Short runs have no such
   percentile above the median and report the median.  Returns the value
   and the percentile it sits at. *)
let tail a =
  let n = Array.length a in
  if n < 20 then (median a, 50.0)
  else ((sorted a).(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)

let geomean l =
  match l with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 l
        /. float_of_int (List.length l))

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
