(* compile_grid: one op is one grid configuration compiled under all four
   schemes, starting from [prepare].  Search does nearly all the work; the
   scheduler, simulator, DRAM, executor and serve layers do none. *)

module Compiler = Compass_core.Compiler

(* Host seconds one pass over the grid took when the benchmark was
   defined. *)
let nominal_grid_s = 2.5

type env = { configs : Grid.config array }

(* Set-up builds the models and chips, then compiles the cheapest
   configuration once so that first-use costs stay out of the timed
   region. *)
let setup ~seed =
  let configs = Grid.configs ~seed in
  Array.iter (fun c -> if Grid.label c = "squeezenet-S-4" then ignore (Grid.compile c)) configs;
  { configs }

let run env ~seed ~seconds ~traced =
  let order =
    Grid.op_order ~seed ~n:(Array.length env.configs) ~seconds ~nominal_s:nominal_grid_s
  in
  let latencies = Array.make (Array.length order) 0. in
  let texts = Array.make (Array.length order) "" in
  let first : (int, Compiler.t list) Hashtbl.t = Hashtbl.create 18 in
  let failed = ref 0 and notes = ref [] in
  let evaluations = ref 0 and cache_spans = ref 0 and dp_spans = ref 0 and dp_edges = ref 0 in
  Pass.region ~traced (fun () ->
      Array.iteri
        (fun k i ->
          let c = env.configs.(i) in
          let t0 = Clock.now () in
          let plans = Grid.compile c in
          latencies.(k) <- Clock.now () -. t0;
          List.iter
            (fun p ->
              Option.iter
                (fun (r : Compass_core.Ga.result) ->
                  evaluations := !evaluations + r.evaluations;
                  cache_spans := !cache_spans + r.cache_spans)
                p.Compiler.ga;
              Option.iter
                (fun (r : Compass_core.Optimal.result) ->
                  dp_spans := !dp_spans + r.stats.spans_evaluated;
                  dp_edges := !dp_edges + r.stats.edges_relaxed)
                p.Compiler.dp)
            plans;
          (* Untimed checks: a configuration compiled again with the same
             GA seed must give the same plan text byte for byte. *)
          texts.(k) <- Grid.plan_text plans;
          let problems =
            Grid.check_plans (Grid.label c) plans
            @
            match Hashtbl.find_opt first i with
            | None ->
              Hashtbl.add first i plans;
              []
            | Some earlier ->
              if Grid.plan_text earlier = texts.(k) then []
              else [ Grid.label c ^ ": plan text differs from an earlier compile" ]
          in
          if problems <> [] then begin
            incr failed;
            notes := !notes @ problems
          end)
        order);
  let region_s = Array.fold_left ( +. ) 0. latencies in
  let busy = List.map (fun l -> (l, Pass.busy_s l)) [ "prepare"; "ga"; "dp"; "baselines" ] in
  let hit_ratio = Pass.hit_ratio () in
  let peak_heap_mb = Pass.peak_heap_mb () in
  let unique =
    List.init (Array.length env.configs) Fun.id
    |> List.filter_map (Hashtbl.find_opt first)
    |> List.concat
  in
  {
    Pass.latencies;
    region_s;
    failed = !failed;
    notes = !notes;
    outputs = Pass.digest (Array.to_list texts);
    counts =
      [
        ("ga.evaluations", float_of_int !evaluations);
        ("ga.cache_spans", float_of_int !cache_spans);
        ("dp.spans_evaluated", float_of_int !dp_spans);
        ("dp.edges_relaxed", float_of_int !dp_edges);
      ];
    layers =
      List.map (fun (l, s) -> (l ^ ".busy_s", s)) busy
      @ [ ("estimator.span_cache.hit_ratio", hit_ratio) ];
    breakdown = busy;
    modeled = Modeled.summarize (List.map Modeled.simulate unique);
    peak_heap_mb;
  }
