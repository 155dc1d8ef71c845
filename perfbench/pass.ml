(* One pass over a run's fixed list of operations, and what it measured. *)

type t = {
  latencies : float array;  (** per op, in op order *)
  region_s : float;  (** the timed region; every second of it belongs to an op *)
  failed : int;  (** ops with at least one failed check *)
  notes : string list;  (** one line per failed check *)
  outputs : string;  (** digest of everything the ops returned *)
  counts : (string * float) list;
      (** per-layer work counts; must repeat exactly for a seed *)
  layers : (string * float) list;  (** per-layer times and ratios (traced passes) *)
  breakdown : (string * float) list;
      (** busy seconds of the layers that partition the timed region *)
  modeled : Modeled.summary;
  peak_heap_mb : float;
}

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Runs [f] as a pass's timed region.  A traced pass also turns on the
   library's spans and counters, from a clean slate; they stay readable
   after the region ends.  The benchmark's own layer spans are library
   spans named [bench.<layer>] around its calls into each layer. *)
let region ~traced f =
  if traced then begin
    Compass_util.Trace.reset ();
    Compass_util.Metrics.reset ();
    Compass_util.Trace.enable ~clock:Clock.now ();
    Compass_util.Metrics.enable ()
  end;
  Fun.protect f ~finally:(fun () ->
      Compass_util.Trace.disable ();
      Compass_util.Metrics.disable ())

let counter name =
  float_of_int (Option.value ~default:0 (Compass_util.Metrics.find_int name))

(* Total seconds inside the library's own spans of this name. *)
let library_span_s name =
  List.fold_left
    (fun acc s ->
      if s.Compass_util.Trace.span_name = name then acc +. s.Compass_util.Trace.total_s
      else acc)
    0.
    (Compass_util.Trace.summarize ())

(* Busy seconds of one of the benchmark's [bench.<layer>] spans. *)
let busy_s layer = library_span_s ("bench." ^ layer)

let ratio a b = if b = 0. then 0. else a /. b

let hit_ratio () =
  let hits = counter "estimator.span_cache.hits" in
  ratio hits (hits +. counter "estimator.span_cache.misses")

let digest parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))
