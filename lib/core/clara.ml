(* Library root: re-export the pipeline plus the report, microbenchmark,
   chain and interference facilities as submodules. *)

include Pipeline
module Report = Report
module Microbench = Microbench
module Chain = Chain
module Interference = Interference
