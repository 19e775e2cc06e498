(* Temp names are unique per process *and* per call: a fixed [path ^
   ".tmp"] lets two concurrent savers (e.g. `hidetc serve` and a bench run
   sharing --cache) clobber each other's partial writes before the rename.
   With unique names each rename is atomic on its own complete file, so
   the last saver wins and the file is always loadable. *)
let tmp_counter = Atomic.make 0

let write_atomic path write =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_counter 1)
  in
  try
    let oc = open_out_bin tmp in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
        write oc;
        close_out oc);
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))
