(* The modeled chip: each plan's estimate next to its ISA-simulated run.
   Everything here is a pure function of the plans, so for a given seed the
   figures are deterministic. *)

module Compiler = Compass_core.Compiler
module Estimator = Compass_core.Estimator
module Sim = Compass_isa.Sim

type plan = {
  model : string;
  config : string;  (** model-chip-batch *)
  scheme : Compiler.scheme;
  batch : int;
  est_s : float;  (** estimated batch latency *)
  est_inf_per_s : float;
  est_write_s : float;
  est_compute_s : float;
  est_io_s : float;
  sim_s : float;  (** simulated makespan of one batch *)
  sim_energy_j : float;
  sim_busy : (string * float) list;  (** chip-level busy seconds per category *)
}

let category label =
  match label with
  | "weight_write" -> "write"
  | "mvm" | "vfu" | "check" -> "compute"
  | "load" | "store" | "send" | "recv" -> "io"
  | _ -> "sync"

let categories = [ "write"; "compute"; "io"; "sync" ]

(* Seconds during which at least one core runs an instruction of the
   category: the union of its intervals, comparable with the estimator's
   chip-level phase times. *)
let union_busy (events : Sim.event list) cat =
  let intervals =
    List.filter_map
      (fun (e : Sim.event) ->
        if category e.label = cat then Some (e.start_s, e.finish_s) else None)
      events
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (s, f) ->
        match cur with
        | Some (cs, cf) when s <= cf -> (total, Some (cs, Float.max cf f))
        | Some (cs, cf) -> (total +. (cf -. cs), Some (s, f))
        | None -> (total, Some (s, f)))
      (0., None) intervals
  in
  match last with Some (s, f) -> total +. (f -. s) | None -> total

let of_sim (p : Compiler.t) (sim : Sim.result) =
  let perf = p.Compiler.perf in
  let span_sum f = List.fold_left (fun acc s -> acc +. f s) 0. perf.Estimator.spans in
  {
    model = Compass_nn.Graph.name p.Compiler.model;
    config = Compiler.label p;
    scheme = p.Compiler.scheme;
    batch = p.Compiler.batch;
    est_s = perf.Estimator.batch_latency_s;
    est_inf_per_s = perf.Estimator.throughput_per_s;
    est_write_s = span_sum (fun s -> s.Estimator.write_s);
    est_compute_s = span_sum (fun s -> s.Estimator.compute_s);
    est_io_s = span_sum (fun s -> s.Estimator.io_s);
    sim_s = sim.Sim.makespan_s;
    sim_energy_j = sim.Sim.energy_j;
    sim_busy = List.map (fun c -> (c, union_busy sim.Sim.events c)) categories;
  }

let simulate (p : Compiler.t) =
  of_sim p (Compass_core.Scheduler.simulate p.Compiler.ctx (Compiler.schedule p))

let sim_edp p = p.sim_energy_j /. float_of_int p.batch *. p.sim_s

type summary = {
  e2e : (string * float) list;  (** sim_inf_per_s, sim_edp_j_s, est_sim_error, rank_tau *)
  layers : (string * float) list;  (** the [modeled.*] per-layer metrics *)
}

let geomean f xs = match xs with [] -> 0. | _ -> Compass_util.Stats.geomean (List.map f xs)

(* One configuration compiled under all four schemes. *)
type config_plans = { compass : plan; dp : plan; greedy : plan; layerwise : plan }

let summarize plans =
  let compass = List.filter (fun p -> p.scheme = Compiler.Compass) plans in
  let sum f = List.fold_left (fun acc p -> acc +. f p) 0. compass in
  let full =
    List.sort_uniq compare (List.map (fun p -> p.config) plans)
    |> List.filter_map (fun config ->
           let of_scheme s =
             List.find_opt (fun p -> p.config = config && p.scheme = s) plans
           in
           match List.map of_scheme Grid.schemes with
           | [ Some compass; Some dp; Some greedy; Some layerwise ] ->
             Some { compass; dp; greedy; layerwise }
           | _ -> None)
  in
  let taus =
    List.filter_map
      (fun c ->
        let ps = [| c.compass; c.dp; c.greedy; c.layerwise |] in
        Bstats.kendall_tau (Array.map (fun p -> p.est_s) ps) (Array.map (fun p -> p.sim_s) ps))
      full
  in
  let mean = function
    | [] -> 0.
    | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
  in
  (* Geomean over configurations of a baseline's figure over compass's. *)
  let versus baseline metric = geomean (fun c -> metric (baseline c) /. metric c.compass) full in
  let sim_s p = p.sim_s in
  let busy cat = sum (fun p -> List.assoc cat p.sim_busy) in
  {
    e2e =
      [
        ("sim_inf_per_s", geomean (fun p -> float_of_int p.batch /. p.sim_s) compass);
        ("sim_edp_j_s", geomean sim_edp compass);
        ("est_sim_error", mean (List.map (fun p -> Float.abs (log (p.sim_s /. p.est_s))) plans));
        ("rank_tau", mean taus);
      ];
    layers =
      List.map
        (fun m ->
          ( Printf.sprintf "modeled.%s.sim_over_est" m,
            geomean (fun p -> p.sim_s /. p.est_s) (List.filter (fun p -> p.model = m) plans) ))
        Grid.model_names
      @ [
          ("modeled.est.write_s", sum (fun p -> p.est_write_s));
          ("modeled.est.compute_s", sum (fun p -> p.est_compute_s));
          ("modeled.est.io_s", sum (fun p -> p.est_io_s));
          ("modeled.sim.write_busy_s", busy "write");
          ("modeled.sim.compute_busy_s", busy "compute");
          ("modeled.sim.io_busy_s", busy "io");
          ("modeled.sim.sync_busy_s", busy "sync");
          ( "modeled.dp_sim_regret",
            geomean
              (fun c ->
                c.dp.sim_s
                /. List.fold_left Float.min c.compass.sim_s
                     [ c.dp.sim_s; c.greedy.sim_s; c.layerwise.sim_s ])
              full );
          ("modeled.compass_vs_greedy.speedup", versus (fun c -> c.greedy) sim_s);
          ("modeled.compass_vs_greedy.edp_gain", versus (fun c -> c.greedy) sim_edp);
          ("modeled.compass_vs_layerwise.speedup", versus (fun c -> c.layerwise) sim_s);
          ("modeled.compass_vs_layerwise.edp_gain", versus (fun c -> c.layerwise) sim_edp);
          ("modeled.est_inf_per_s", geomean (fun p -> p.est_inf_per_s) compass);
        ];
  }
