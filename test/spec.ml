(* The specialized-engine equivalence suite (DESIGN.md §14), the one
   suite [main.exe] leaves out: [dune build @spec] runs it, and
   [dune runtest] runs it once through that alias. *)

let () = Suite_runner.run "spec" Test_spec.suite
