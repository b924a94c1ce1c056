(* The in-process half of the benchmark; run.py builds and calls it.

     bench.exe dse seed=N seconds=S domains=D trace=0|1
     bench.exe flow seconds=S trace=0|1
     bench.exe reference jobs=FILE
     bench.exe layers requests=FILE results=FILE dir=DIR domains=D

   Each mode prints JSON documents on stdout, one per line; see the
   module of each mode for its fields. *)

let () =
  let get, get_int = Util.args () in
  match Array.to_list Sys.argv with
  | _ :: "dse" :: _ ->
    Dse_load.main ~seed:(get_int "seed") ~seconds:(get_int "seconds")
      ~domains:(get_int "domains") ~trace:(get_int "trace" = 1)
  | _ :: "flow" :: _ ->
    Flow_load.main ~seconds:(get_int "seconds")
      ~trace:(get_int "trace" = 1)
  | _ :: "reference" :: _ -> Served.reference ~jobs:(get "jobs")
  | _ :: "layers" :: _ ->
    Served.layers ~requests:(get "requests") ~results:(get "results")
      ~dir:(get "dir") ~domains:(get_int "domains")
  | _ -> Util.fail "usage: bench.exe (dse|flow|reference|layers) key=value..."
