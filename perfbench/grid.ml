(* The paper's Fig. 6/8 grid: {vgg16, resnet18, squeezenet} x chips
   {S, M, L} x batch {4, 16}, each configuration compiled under all four
   schemes.  The GA runs on one domain with the paper's full parameters and
   early stopping off, so the work per configuration does not depend on the
   seed; the seed only draws each configuration's GA seed. *)

module Compiler = Compass_core.Compiler
module Ga = Compass_core.Ga

let model_names = [ "vgg16"; "resnet18"; "squeezenet" ]
let chip_labels = [ "S"; "M"; "L" ]
let batches = [ 4; 16 ]

let schemes =
  Compiler.[ Compass; Optimal; Greedy; Layerwise ]

type config = {
  model : Compass_nn.Graph.t;
  chip : Compass_arch.Config.chip;
  batch : int;
  ga_seed : int;
}

let label c =
  Printf.sprintf "%s-%s-%d" (Compass_nn.Graph.name c.model)
    c.chip.Compass_arch.Config.label c.batch

(* Models and chips are built here, once per set-up. *)
let configs ~seed =
  let rng = Compass_util.Rng.create seed in
  let models = List.map Compass_nn.Models.by_name model_names in
  let chips = List.map Compass_arch.Config.by_label chip_labels in
  List.concat_map
    (fun model ->
      List.concat_map
        (fun chip ->
          List.map
            (fun batch ->
              { model; chip; batch; ga_seed = Compass_util.Rng.int rng 1_000_000_000 })
            batches)
        chips)
    models
  |> Array.of_list

(* How many times a run of [seconds] repeats a block of ops that took
   [nominal_s] host seconds when the benchmark was defined: the clock never
   sets a run's length. *)
let repeats ~seconds ~nominal_s = max 1 (Float.to_int (Float.round (seconds /. nominal_s)))

(* A run's op order: seeded permutations of [0, n), back to back. *)
let op_order ~seed ~n ~seconds ~nominal_s =
  let rng = Compass_util.Rng.create seed in
  Array.concat
    (List.init (repeats ~seconds ~nominal_s) (fun _ ->
         let a = Array.init n Fun.id in
         Compass_util.Rng.shuffle rng a;
         a))

let ga_params c =
  { Ga.default_params with Ga.early_stop_patience = 0; jobs = 1; seed = c.ga_seed }

let layer_of_scheme = function
  | Compiler.Compass -> "ga"
  | Compiler.Optimal -> "dp"
  | Compiler.Greedy | Compiler.Layerwise -> "baselines"

(* One configuration under all four schemes, from [prepare] on; the plans
   come back in [schemes] order. *)
let compile c =
  let prepared =
    Compass_util.Trace.with_span "bench.prepare" (fun () ->
        Compiler.prepare ~model:c.model ~chip:c.chip ())
  in
  List.map
    (fun scheme ->
      Compass_util.Trace.with_span ("bench." ^ layer_of_scheme scheme) (fun () ->
          Compiler.compile_prepared ~ga_params:(ga_params c) ~batch:c.batch prepared
            scheme))
    schemes

(* Checks that do not trust the compiler: the independent verifier, and
   the DP's exactness claim against every other scheme's estimate.  One
   message per violated check. *)
let check_plans label plans =
  let verify =
    List.concat_map
      (fun plan ->
        match Compass_core.Verify.check plan with
        | [] -> []
        | v :: _ ->
          [
            Printf.sprintf "%s/%s: %s" label
              (Compiler.scheme_to_string plan.Compiler.scheme)
              (Compass_core.Verify.render_violation v);
          ])
      plans
  in
  let latency p = p.Compiler.perf.Compass_core.Estimator.batch_latency_s in
  let dp = List.find (fun p -> p.Compiler.scheme = Compiler.Optimal) plans in
  let dp_worse =
    List.filter_map
      (fun p ->
        if latency dp <= latency p then None
        else
          Some
            (Printf.sprintf "%s: dp estimate %.9g s exceeds %s's %.9g s" label
               (latency dp)
               (Compiler.scheme_to_string p.Compiler.scheme)
               (latency p)))
      plans
  in
  verify @ dp_worse

let plan_text plans = String.concat "" (List.map Compass_core.Plan_text.to_string plans)
