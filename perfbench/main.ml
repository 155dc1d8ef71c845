(* The COMPASS benchmark: runs one workload from a seed, checks every
   output, and prints as its last line one JSON object with the end-to-end
   metrics of an untraced pass (--trace 0) or the per-layer metrics of a
   traced run (--trace 1).

     main.exe --workload NAME --seed N --seconds S --trace 0|1 *)

open Perfbench

type runner = {
  setups : int;
      (** set-ups per untraced run, half before its pass and half after;
          [setup_s] is their median *)
  setup : seed:int -> seconds:float -> (traced:bool -> Pass.t) * (unit -> unit);
      (** a pass over the run's ops, and the release of what set-up built *)
}

let workloads =
  [
    ( "compile_grid",
      {
        setups = 31;
        setup =
          (fun ~seed ~seconds ->
            let env = Compile_grid.setup ~seed in
            ((fun ~traced -> Compile_grid.run env ~seed ~seconds ~traced), ignore));
      } );
    ( "simulate_grid",
      {
        setups = 5;
        setup =
          (fun ~seed ~seconds ->
            let env = Simulate_grid.setup ~seed in
            ((fun ~traced -> Simulate_grid.run env ~seed ~seconds ~traced), ignore));
      } );
    ( "serve_mix",
      {
        setups = 31;
        setup =
          (fun ~seed ~seconds ->
            let env = Serve_mix.setup ~seed in
            ( (fun ~traced -> Serve_mix.run env ~seed ~seconds ~traced),
              fun () -> Serve_mix.close env ));
      } );
  ]

(* Every per-layer metric, with its unit, in print order. *)
let per_layer =
  [
    ("prepare.busy_s", "s"); ("ga.busy_s", "s"); ("ga.evaluations", "count");
    ("ga.cache_spans", "count"); ("estimator.span_cache.hit_ratio", "ratio");
    ("dp.busy_s", "s"); ("dp.spans_evaluated", "count"); ("dp.edges_relaxed", "count");
    ("baselines.busy_s", "s"); ("schedule.busy_s", "s"); ("schedule.instructions", "count");
    ("sim.busy_s", "s"); ("sim.instructions", "count"); ("sim.instrs_per_host_s", "1/s");
    ("dram.busy_s", "s"); ("dram.accesses", "count"); ("dram.accesses_per_host_s", "1/s");
    ("dram.row_hit_ratio", "ratio"); ("executor.busy_s", "s"); ("executor.gemm_share", "ratio");
    ("executor.macs_per_s", "MAC/s"); ("executor.im2col_bytes", "bytes");
    ("serve.submit_s", "s"); ("serve.queue_wait_p50_s", "s"); ("serve.step_s.compile", "s");
    ("serve.step_s.infer", "s"); ("serve.step_s.verify", "s");
    ("serve.infer.non_executor_s", "s"); ("serve.infer_repeat_p50_s", "s");
    ("serve.infer_fresh_p50_s", "s"); ("serve.queue_depth_max", "count");
    ("pool.domains_spawned", "count"); ("pool.retries", "count"); ("pool.task_errors", "count");
    ("modeled.vgg16.sim_over_est", "ratio"); ("modeled.resnet18.sim_over_est", "ratio");
    ("modeled.squeezenet.sim_over_est", "ratio"); ("modeled.est.write_s", "s");
    ("modeled.est.compute_s", "s"); ("modeled.est.io_s", "s");
    ("modeled.sim.write_busy_s", "s"); ("modeled.sim.compute_busy_s", "s");
    ("modeled.sim.io_busy_s", "s"); ("modeled.sim.sync_busy_s", "s");
    ("modeled.dp_sim_regret", "ratio"); ("modeled.compass_vs_greedy.speedup", "ratio");
    ("modeled.compass_vs_greedy.edp_gain", "ratio");
    ("modeled.compass_vs_layerwise.speedup", "ratio");
    ("modeled.compass_vs_layerwise.edp_gain", "ratio"); ("modeled.est_inf_per_s", "inf/s");
    ("trace.overhead.ops_per_s", "ratio"); ("region_s", "s"); ("unattributed_s", "s");
  ]
  @ List.map
      (fun layer -> ("share." ^ layer, "ratio"))
      [
        "prepare"; "ga"; "dp"; "baselines"; "schedule"; "sim"; "dram"; "serve.submit";
        "serve.step.compile"; "serve.infer.non_executor"; "executor"; "serve.step.verify";
        "unattributed";
      ]

let end_to_end_units =
  [
    ("setup_s", "s"); ("ops_per_s", "1/s"); ("op_p50_s", "s"); ("op_tail_s", "s");
    ("peak_heap_mb", "MB"); ("sim_inf_per_s", "inf/s"); ("sim_edp_j_s", "J.s");
    ("est_sim_error", "ratio"); ("rank_tau", "tau");
  ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let usage () =
  prerr_endline "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = Hashtbl.create 4 in
  let rec parse = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
      Hashtbl.replace args key value;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let arg key conv = try conv (Hashtbl.find args key) with Not_found | Failure _ -> usage () in
  let name = arg "--workload" Fun.id in
  let seed = arg "--seed" int_of_string in
  let seconds = arg "--seconds" float_of_string in
  let traced =
    arg "--trace" (function "0" -> false | "1" -> true | _ -> failwith "trace")
  in
  let runner = try List.assoc name workloads with Not_found -> usage () in
  let timed_setup () =
    let t0 = Clock.now () in
    let built = runner.setup ~seed ~seconds in
    (Clock.now () -. t0, built)
  in
  (* An untraced run sets up several times before its pass and keeps the
     last set-up; earlier ones are released.  It sets up as often again
     after the pass, so [setup_s] samples the host over the whole run, not
     over one short window of it.  A traced run sets up once. *)
  let before = (runner.setups + 1) / 2 in
  let setup_times, pass, release =
    let rec go k times =
      let t, (pass, release) = timed_setup () in
      if k = 1 then (t :: times, pass, release)
      else begin
        release ();
        go (k - 1) (t :: times)
      end
    in
    go (if traced then 1 else before) []
  in
  let problems = ref [] in
  let require ok what = if not ok then problems := what :: !problems in
  let passes = ref [] in
  let run ~traced =
    let p = pass ~traced in
    passes := p :: !passes;
    List.iter (Printf.eprintf "check failed: %s\n%!") p.Pass.notes;
    p
  in
  let ops_per_s p = float_of_int (Array.length p.Pass.latencies) /. p.Pass.region_s in
  let tail p =
    match Bstats.tail (Array.to_list p.Pass.latencies) with
    | Some t -> t
    | None -> failwith "fewer than 11 ops: no tail"
  in
  let metrics =
    if not traced then begin
      let p = run ~traced:false in
      release ();
      let after =
        List.init (runner.setups - before) (fun _ ->
            let t, (_, release) = timed_setup () in
            release ();
            t)
      in
      let setup_s = Bstats.median (setup_times @ after) in
      let t = tail p in
      Printf.printf "%s: %d ops in %.3f s; tail is p%.2f of %d samples; set-up median of %d\n"
        name (Array.length p.latencies) p.region_s t.Bstats.percentile t.Bstats.samples
        (List.length setup_times + List.length after);
      let values =
        [
          ("setup_s", setup_s); ("ops_per_s", ops_per_s p);
          ("op_p50_s", Bstats.median (Array.to_list p.latencies)); ("op_tail_s", t.value);
          ("peak_heap_mb", p.peak_heap_mb);
        ]
        @ p.modeled.Modeled.e2e
      in
      List.map (fun (n, u) -> (n, u, List.assoc n values)) end_to_end_units
    end
    else begin
      let u1 = run ~traced:false in
      let u2 = run ~traced:false in
      let t1 = run ~traced:true in
      let t2 = run ~traced:true in
      release ();
      (* Determinism self-checks. *)
      require
        (Array.length u1.latencies = Array.length u2.latencies
        && (tail u1).percentile = (tail u2).percentile)
        "two untraced passes differ in op count or tail percentile";
      require
        (List.for_all (fun p -> p.Pass.outputs = t1.outputs) [ u1; u2; t2 ])
        "passes with the same seed produced different outputs";
      require (t1.counts = t2.counts) "two traced passes differ in per-layer counts";
      require (t1.modeled = t2.modeled) "two traced passes differ in modeled metrics";
      let attributed = List.fold_left (fun acc (_, s) -> acc +. s) 0. t1.breakdown in
      let unattributed = t1.region_s -. attributed in
      let shares =
        List.map (fun (l, s) -> ("share." ^ l, s /. t1.region_s)) t1.breakdown
        @ [ ("share.unattributed", unattributed /. t1.region_s) ]
      in
      let overhead =
        (ops_per_s t1 +. ops_per_s t2) /. (ops_per_s u1 +. ops_per_s u2)
      in
      let values =
        t1.layers @ t1.counts @ t1.modeled.Modeled.layers @ shares
        @ [
            ("trace.overhead.ops_per_s", overhead); ("region_s", t1.region_s);
            ("unattributed_s", unattributed);
          ]
      in
      List.iter
        (fun (what, p) ->
          Printf.printf "%s %s pass: %d ops in %.3f s\n" name what (Array.length p.Pass.latencies)
            p.Pass.region_s)
        [ ("untraced", u1); ("untraced", u2); ("traced", t1); ("traced", t2) ];
      List.iter (fun (n, s) -> Printf.printf "  %-32s %6.2f%%\n" n (100. *. s)) shares;
      Printf.printf "  %-32s %.6f s\n" "unattributed_s" unattributed;
      List.map
        (fun (n, u) -> (n, u, Option.value ~default:0. (List.assoc_opt n values)))
        per_layer
    end
  in
  List.iter (Printf.eprintf "self-check failed: %s\n%!") !problems;
  let attempted = List.fold_left (fun acc p -> acc + Array.length p.Pass.latencies) 0 !passes in
  let failed = List.fold_left (fun acc p -> acc + p.Pass.failed) 0 !passes in
  print_result ~correct:(failed = 0 && !problems = []) ~attempted ~failed metrics
