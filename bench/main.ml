(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. IV), plus Bechamel micro-benchmarks of the compiler's
   hot paths.

   Sections (pass names as arguments to run a subset; default = all):
     table1 table2 fig5 fig6 fig7 fig8 fig9 fig10 validate ablation envm
     quant stability onchip model_ablation parallel faults recover dp micro
     observe infer chaos serve

   The experiment index lives in DESIGN.md; measured-vs-paper numbers are
   recorded in EXPERIMENTS.md. *)

open Compass_core
open Compass_util

let section_banner name description =
  Printf.printf "\n%s\n=== %s — %s\n%s\n" (String.make 78 '=') name description
    (String.make 78 '=')

(* Plans are shared across sections; memoize them. *)
let plan_cache : (string * string * int * string, Compiler.t) Hashtbl.t = Hashtbl.create 64

let plan ?(objective = Fitness.Latency) model_name chip_label batch scheme =
  let key = (model_name, chip_label, batch, Compiler.scheme_to_string scheme) in
  match Hashtbl.find_opt plan_cache key with
  | Some p when p.Compiler.objective = objective -> p
  | _ ->
    let p =
      Compiler.compile ~objective
        ~model:(Compass_nn.Models.by_name model_name)
        ~chip:(Compass_arch.Config.by_label chip_label)
        ~batch scheme
    in
    Hashtbl.replace plan_cache key p;
    p

let throughput p = p.Compiler.perf.Estimator.throughput_per_s

let models = [ "vgg16"; "resnet18"; "squeezenet" ]
let chips = [ "S"; "M"; "L" ]
let schemes = [ Compiler.Compass; Compiler.Greedy; Compiler.Layerwise ]

(* -------------------------------------------------------------------- *)
(* Table I                                                              *)

let table1 () =
  section_banner "table1" "hardware configuration (paper Table I)";
  Table.print (Compass_arch.Config.table1 ());
  let core = Compass_arch.Config.chip_s.Compass_arch.Config.core in
  Printf.printf
    "\nper-core components: %d VFUs (%.1f mW), %d x %d KB local memory (%.1f mW),\n\
     control unit (%.1f mW); LPDDR3 8GB external memory, trace-based model.\n"
    core.Compass_arch.Config.vfus_per_core
    (core.Compass_arch.Config.vfu_power_w *. 1e3)
    core.Compass_arch.Config.local_mem_banks
    (core.Compass_arch.Config.local_mem_bytes / 1024)
    (core.Compass_arch.Config.local_mem_power_w *. 1e3)
    (core.Compass_arch.Config.control_power_w *. 1e3)

(* -------------------------------------------------------------------- *)
(* Table II                                                             *)

let table2 () =
  section_banner "table2" "network models and compiler support (paper Table II)";
  List.iter
    (fun chip_label ->
      Printf.printf "\nagainst chip %s:\n" chip_label;
      Table.print
        (Report.support_table
           (Compass_nn.Models.evaluation_models ())
           (Compass_arch.Config.by_label chip_label)))
    chips;
  print_newline ();
  print_endline
    "Prev. = all-weights-on-chip compilers (PUMA/PIMCOMP): a model is only\n\
     mappable when its total weight storage fits the chip. COMPASS maps all."

(* -------------------------------------------------------------------- *)
(* Fig. 5                                                               *)

let fig5 () =
  section_banner "fig5" "partition validity maps (paper Fig. 5)";
  List.iter
    (fun model_name ->
      List.iter
        (fun chip_label ->
          let units =
            Unit_gen.generate
              (Compass_nn.Models.by_name model_name)
              (Compass_arch.Config.by_label chip_label)
          in
          let v = Validity.build units in
          print_newline ();
          print_endline (Validity.render ~cells:24 v))
        [ "S"; "L" ])
    [ "squeezenet"; "resnet18"; "vgg16" ];
  print_newline ();
  print_endline
    "Rows are start positions, columns end positions; '#' marks a valid\n\
     partition span. The invalid portion grows towards bigger models and\n\
     smaller chips (lower-right of the paper's figure)."

(* -------------------------------------------------------------------- *)
(* Fig. 6                                                               *)

let fig6 () =
  section_banner "fig6" "inference throughput comparison (paper Fig. 6)";
  let batches = [ 4; 16 ] in
  let all_rows = ref [] in
  List.iter
    (fun model_name ->
      List.iter
        (fun chip_label ->
          List.iter
            (fun batch ->
              List.iter
                (fun scheme ->
                  all_rows :=
                    Report.row_of_plan (plan model_name chip_label batch scheme)
                    :: !all_rows)
                schemes)
            batches)
        chips)
    models;
  let rows = List.rev !all_rows in
  Table.print (Report.rows_table rows);
  (* Grouped bars per network at batch 16. *)
  List.iter
    (fun model_name ->
      let series scheme =
        ( Compiler.scheme_to_string scheme,
          List.map (fun chip -> throughput (plan model_name chip 16 scheme)) chips )
      in
      print_newline ();
      print_endline
        (Ascii_plot.grouped_bars
           ~title:(Printf.sprintf "throughput (inf/s), %s, batch 16" model_name)
           ~group_labels:(List.map (fun c -> model_name ^ "-" ^ c) chips)
           ~series:(List.map series schemes) ()))
    models;
  (* Speedup summary in the paper's style. *)
  print_newline ();
  let per_network over =
    List.map
      (fun model_name ->
        let ratios =
          List.concat_map
            (fun chip ->
              List.map
                (fun batch ->
                  throughput (plan model_name chip batch Compiler.Compass)
                  /. throughput (plan model_name chip batch over))
                batches)
            chips
        in
        (model_name, Stats.geomean ratios))
      models
  in
  let print_over name scheme =
    let per = per_network scheme in
    Printf.printf "COMPASS vs %-9s: %s (overall %.2fx)\n" name
      (String.concat ", "
         (List.map (fun (m, r) -> Printf.sprintf "%s %.2fx" m r) per))
      (Stats.geomean (List.map snd per))
  in
  print_over "greedy" Compiler.Greedy;
  print_over "layerwise" Compiler.Layerwise

(* -------------------------------------------------------------------- *)
(* Fig. 7                                                               *)

let fig7 () =
  section_banner "fig7" "per-partition latency breakdown, ResNet18-M-16 (paper Fig. 7)";
  List.iter
    (fun scheme ->
      let p = plan "resnet18" "M" 16 scheme in
      let spans = p.Compiler.perf.Estimator.spans in
      let total = p.Compiler.perf.Estimator.batch_latency_s in
      Printf.printf "\n%s: total %s, %d partitions\n"
        (Compiler.scheme_to_string scheme)
        (Units.time_to_string total) (List.length spans);
      let series =
        List.mapi
          (fun k sp -> (Printf.sprintf "P%d" k, sp.Estimator.span_s *. 1e3))
          spans
      in
      print_endline
        (Ascii_plot.bar_chart
           ~title:"  per-partition latency (ms, before write overlap)" () series);
      (* Phase split per partition: write / compute / io. *)
      List.iteri
        (fun k sp ->
          Printf.printf "    P%-2d write %-9s compute %-9s io %-9s\n" k
            (Units.time_to_string sp.Estimator.write_s)
            (Units.time_to_string sp.Estimator.compute_s)
            (Units.time_to_string sp.Estimator.io_s))
        spans;
      let p0 = (List.hd spans).Estimator.span_s in
      let raw_total = List.fold_left (fun a sp -> a +. sp.Estimator.span_s) 0. spans in
      Printf.printf "  P0 share of execution: %.1f%%\n" (100. *. p0 /. raw_total))
    schemes;
  print_newline ();
  let share scheme =
    let p = plan "resnet18" "M" 16 scheme in
    let spans = p.Compiler.perf.Estimator.spans in
    let raw = List.fold_left (fun a sp -> a +. sp.Estimator.span_s) 0. spans in
    (List.hd spans).Estimator.span_s /. raw
  in
  Printf.printf
    "greedy front-loads the network: its P0 takes %.0f%% of execution (paper: >95%%),\n\
     while COMPASS balances partitions (P0 %.0f%%).\n"
    (100. *. share Compiler.Greedy)
    (100. *. share Compiler.Compass)

(* -------------------------------------------------------------------- *)
(* Fig. 8                                                               *)

let fig8 () =
  section_banner "fig8" "inference energy and EDP vs batch size, ResNet18-S (paper Fig. 8)";
  let batches = [ 1; 2; 4; 8; 16 ] in
  let table =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "scheme"; "batch"; "energy/inf"; "latency"; "EDP(J.s)" ]
  in
  List.iter
    (fun scheme ->
      List.iter
        (fun batch ->
          let p = plan "resnet18" "S" batch scheme in
          Table.add_row table
            [
              Compiler.scheme_to_string scheme;
              string_of_int batch;
              Units.energy_to_string p.Compiler.perf.Estimator.energy_per_sample_j;
              Units.time_to_string p.Compiler.perf.Estimator.batch_latency_s;
              Printf.sprintf "%.3g" p.Compiler.perf.Estimator.edp_j_s;
            ])
        batches)
    schemes;
  Table.print table;
  print_newline ();
  let series metric =
    List.map
      (fun scheme ->
        ( Compiler.scheme_to_string scheme,
          List.map (fun b -> metric (plan "resnet18" "S" b scheme)) batches ))
      schemes
  in
  print_endline
    (Ascii_plot.grouped_bars ~title:"energy per inference (mJ)"
       ~group_labels:(List.map (fun b -> "batch " ^ string_of_int b) batches)
       ~series:
         (series (fun p -> p.Compiler.perf.Estimator.energy_per_sample_j *. 1e3))
       ());
  print_newline ();
  print_endline
    (Ascii_plot.grouped_bars ~title:"EDP per inference (uJ.s)"
       ~group_labels:(List.map (fun b -> "batch " ^ string_of_int b) batches)
       ~series:(series (fun p -> p.Compiler.perf.Estimator.edp_j_s *. 1e6))
       ());
  let edp scheme =
    Stats.geomean
      (List.map (fun b -> (plan "resnet18" "S" b scheme).Compiler.perf.Estimator.edp_j_s) batches)
  in
  Printf.printf "\nEDP: COMPASS vs greedy %.2fx, vs layerwise %.2fx (geomean over batches)\n"
    (edp Compiler.Greedy /. edp Compiler.Compass)
    (edp Compiler.Layerwise /. edp Compiler.Compass)

(* -------------------------------------------------------------------- *)
(* Fig. 9                                                               *)

let fig9 () =
  section_banner "fig9"
    "weight write/load energy relative to MVM vs chip and batch (paper Fig. 9)";
  let batches = [ 1; 4; 16 ] in
  let rows = ref [] in
  List.iter
    (fun chip ->
      List.iter
        (fun batch ->
          let p = plan "resnet18" chip batch Compiler.Compass in
          let spans = p.Compiler.perf.Estimator.spans in
          let sum f = List.fold_left (fun a sp -> a +. f sp) 0. spans in
          let mvm = sum (fun sp -> sp.Estimator.mvm_energy_j) in
          let write = sum (fun sp -> sp.Estimator.write_energy_j) in
          let load =
            sum (fun sp ->
                Compass_dram.Dram.analytic_energy_j sp.Estimator.unique_weight_bytes)
          in
          rows :=
            (Printf.sprintf "%s-%d" chip batch, write /. mvm, load /. mvm) :: !rows)
        batches)
    chips;
  let rows = List.rev !rows in
  let table =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "chip-batch"; "write/MVM"; "load/MVM"; "(write+load)/MVM" ]
  in
  List.iter
    (fun (label, w, l) ->
      Table.add_row table
        [
          label;
          Printf.sprintf "%.3f" w;
          Printf.sprintf "%.3f" l;
          Printf.sprintf "%.3f" (w +. l);
        ])
    rows;
  Table.print table;
  print_newline ();
  print_endline
    (Ascii_plot.bar_chart ~title:"weight (write+load) energy normalized to MVM energy" ()
       (List.map (fun (label, w, l) -> (label, w +. l)) rows));
  print_newline ();
  print_endline
    "With batch 1 the weight replacement energy dominates compute; by batch 16\n\
     it is amortized to a small fraction (the paper's Sec. IV-B3 observation)."

(* -------------------------------------------------------------------- *)
(* Fig. 10                                                              *)

let fig10 () =
  section_banner "fig10" "GA fitness evolution, ResNet18-M-16 (paper Fig. 10)";
  let p = plan "resnet18" "M" 16 Compiler.Compass in
  match p.Compiler.ga with
  | None -> print_endline "(no GA history)"
  | Some ga ->
    (* A random third of the population per generation, as in the paper. *)
    let rng = Rng.create 2024 in
    let points =
      List.concat_map
        (fun r ->
          let sample marker xs =
            List.filter_map
              (fun (fitness, _) ->
                if Rng.int rng 3 = 0 then
                  Some (float_of_int r.Ga.generation, fitness *. 1e3, marker)
                else None)
              xs
          in
          sample 'o' r.Ga.selected @ sample '+' r.Ga.mutated)
        ga.Ga.history
    in
    print_endline
      (Ascii_plot.scatter ~width:70 ~height:22
         ~title:"fitness (ms) vs generation; 'o' = selected, '+' = mutated"
         ~points ());
    print_newline ();
    let table =
      Table.create
        ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right ]
        [ "generation"; "best(ms)"; "median #parts"; "parts of best" ]
    in
    List.iter
      (fun r ->
        let parts = List.map snd (r.Ga.selected @ r.Ga.mutated) in
        let median =
          let sorted = List.sort compare parts in
          List.nth sorted (List.length sorted / 2)
        in
        let best_parts =
          match r.Ga.selected with (_, k) :: _ -> k | [] -> 0
        in
        Table.add_row table
          [
            string_of_int r.Ga.generation;
            Printf.sprintf "%.3f" (r.Ga.best_fitness *. 1e3);
            string_of_int median;
            string_of_int best_parts;
          ])
      ga.Ga.history;
    Table.print table;
    Printf.printf
      "\n%d generations (%d evaluations, %d distinct spans); the population\n\
       settles on a partition count and refines within it, as in the paper.\n"
      ga.Ga.generations_run ga.Ga.evaluations ga.Ga.cache_spans

(* -------------------------------------------------------------------- *)
(* Cross-validation: scheduler + chip simulator + DRAM replay           *)

let validate () =
  section_banner "validate"
    "estimator vs instruction-level simulation vs LPDDR3 replay (DRAMsim3 step)";
  List.iter
    (fun (model_name, chip, scheme) ->
      let p = plan model_name chip 16 scheme in
      let m = Compiler.measure p in
      let est = p.Compiler.perf.Estimator.batch_latency_s in
      let sim = m.Compiler.sim.Compass_isa.Sim.makespan_s in
      Printf.printf "%s (%s): estimator %s, simulator %s (x%.2f), %d instrs\n"
        (Compiler.label p)
        (Compiler.scheme_to_string scheme)
        (Units.time_to_string est) (Units.time_to_string sim) (sim /. est)
        m.Compiler.schedule.Scheduler.instruction_count;
      Printf.printf "  %s\n"
        (Format.asprintf "%a" Compass_dram.Dram.pp_stats m.Compiler.dram);
      if model_name = "resnet18" && scheme = Compiler.Compass then begin
        print_endline (Compass_isa.Timeline.render m.Compiler.sim);
        let util = Compass_isa.Timeline.core_utilization m.Compiler.sim in
        let avg = Stats.mean (List.map snd util) in
        Printf.printf "mean core compute utilization: %.1f%%\n" (100. *. avg)
      end)
    [
      ("resnet18", "M", Compiler.Compass);
      ("resnet18", "M", Compiler.Greedy);
      ("squeezenet", "S", Compiler.Compass);
      ("vgg16", "S", Compiler.Greedy);
    ];
  (* Independent pixel-level pipeline simulation vs the closed form. *)
  print_newline ();
  let p = plan "resnet18" "M" 16 Compiler.Compass in
  let ratios =
    List.map
      (fun sp ->
        Pipeline_sim.estimator_agreement p.Compiler.ctx ~batch:16
          ~start_:sp.Estimator.start_ ~stop:sp.Estimator.stop)
      p.Compiler.perf.Estimator.spans
  in
  Printf.printf
    "pixel-level pipeline simulation vs closed-form compute (per partition): %s\n"
    (String.concat ", " (List.map (Printf.sprintf "%.3f") ratios))

(* -------------------------------------------------------------------- *)
(* Ablation: GA design choices (mutation schemes, crossover)            *)

let ablation () =
  section_banner "ablation"
    "GA design choices on ResNet18-M-16: mutation schemes and crossover";
  let model = Compass_nn.Models.resnet18 () in
  let chip = Compass_arch.Config.by_label "M" in
  let units = Unit_gen.generate model chip in
  let validity = Validity.build units in
  let ctx = Dataflow.context units in
  let batch = 16 in
  let run label params =
    let r = Ga.optimize ~params ctx validity ~batch in
    ( label,
      r.Ga.best.Ga.perf.Estimator.throughput_per_s,
      r.Ga.best.Ga.fitness,
      r.Ga.generations_run )
  in
  let base = Ga.default_params in
  let configs =
    (("all schemes (paper)", base)
    :: List.map
         (fun s ->
           ( Printf.sprintf "only %s" (Ga.scheme_name s),
             { base with Ga.schemes = [ s ] } ))
         [ Ga.Merge; Ga.Split; Ga.Move; Ga.Fixed_random ])
    @ List.map
        (fun s ->
          ( Printf.sprintf "without %s" (Ga.scheme_name s),
            { base with Ga.schemes = List.filter (fun x -> x <> s) [ Ga.Merge; Ga.Split; Ga.Move; Ga.Fixed_random ] } ))
        [ Ga.Merge; Ga.Split; Ga.Move; Ga.Fixed_random ]
    @ [ ("with crossover 0.3 (extension)", { base with Ga.crossover_rate = 0.3 }) ]
  in
  let table =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "configuration"; "throughput"; "best fitness (ms)"; "generations" ]
  in
  let results = List.map (fun (label, params) -> run label params) configs in
  List.iter
    (fun (label, thpt, fitness, gens) ->
      Table.add_row table
        [
          label;
          Printf.sprintf "%.1f/s" thpt;
          Printf.sprintf "%.3f" (fitness *. 1e3);
          string_of_int gens;
        ])
    results;
  Table.print table;
  print_newline ();
  print_endline
    "Restricting the mutation mix changes both convergence speed and the\n\
     final fitness; the four-scheme mix of Sec. III-C3 combines Merge/Split\n\
     (partition count), Move (boundary fine-tuning) and FixedRandom\n\
     (diversity against local optima)."

(* -------------------------------------------------------------------- *)
(* eNVM technologies (paper Sec. V-B)                                   *)

let envm () =
  section_banner "envm" "compilation across IMC technologies (paper Sec. V-B)";
  let model = Compass_nn.Models.squeezenet () in
  let batch = 16 in
  let table =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "technology"; "parts"; "throughput"; "write share"; "energy/inf"; "lifetime@100inf/s" ]
  in
  List.iter
    (fun tech ->
      let chip = Compass_arch.Technology.chip tech Compass_arch.Config.chip_s in
      let plan =
        Compiler.compile ~model ~chip ~batch Compiler.Compass
      in
      let perf = plan.Compiler.perf in
      let write_s =
        List.fold_left (fun acc sp -> acc +. sp.Estimator.write_s) 0. perf.Estimator.spans
      in
      let raw =
        List.fold_left (fun acc sp -> acc +. sp.Estimator.span_s) 0. perf.Estimator.spans
      in
      (* Every weight cell is programmed once per batch. *)
      let rewrites_per_cell_per_s = 100. /. float_of_int batch in
      let lifetime =
        match Compass_arch.Technology.lifetime_s tech ~rewrites_per_cell_per_s with
        | None -> "unlimited"
        | Some s when s > 3e9 -> "> 100 years"
        | Some s -> Printf.sprintf "%.1f days" (s /. 86400.)
      in
      Table.add_row table
        [
          tech.Compass_arch.Technology.name;
          string_of_int (Partition.partition_count plan.Compiler.group);
          Printf.sprintf "%.1f/s" perf.Estimator.throughput_per_s;
          Printf.sprintf "%.1f%%" (100. *. write_s /. raw);
          Units.energy_to_string perf.Estimator.energy_per_sample_j;
          lifetime;
        ])
    Compass_arch.Technology.presets;
  Table.print table;
  print_newline ();
  print_endline
    "ReRAM's slow, endurance-limited writes shift the optimum toward fewer\n\
     partitions and larger batches; MRAM sits between ReRAM and SRAM — the\n\
     crossbar write path is just a hardware-configuration parameter."

(* -------------------------------------------------------------------- *)
(* Prior-compiler (all-on-chip) mode vs COMPASS                          *)

let onchip () =
  section_banner "onchip"
    "PUMA/PIMCOMP all-on-chip execution vs COMPASS where both apply";
  let batch = 16 in
  let table =
    Table.create
      ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right ]
      [ "workload"; "prior compilers"; "COMPASS"; "gain" ]
  in
  List.iter
    (fun (model_name, chip_label) ->
      let model = Compass_nn.Models.by_name model_name in
      let chip = Compass_arch.Config.by_label chip_label in
      let compass = plan model_name chip_label batch Compiler.Compass in
      let prior =
        match Compiler.compile_on_chip ~model ~chip ~batch with
        | Ok r ->
          Printf.sprintf "%.1f/s (pinned weights)"
            r.Compiler.on_chip_perf.Estimator.throughput_per_s
        | Error _ -> "unmappable"
      in
      let gain =
        match Compiler.compile_on_chip ~model ~chip ~batch with
        | Ok r ->
          Printf.sprintf "%.2fx"
            (throughput compass /. r.Compiler.on_chip_perf.Estimator.throughput_per_s)
        | Error _ -> "-"
      in
      Table.add_row table
        [
          Printf.sprintf "%s-%s-%d" model_name chip_label batch;
          prior;
          Printf.sprintf "%.1f/s" (throughput compass);
          gain;
        ])
    [
      ("squeezenet", "S"); ("squeezenet", "M"); ("squeezenet", "L");
      ("resnet18", "S"); ("vgg16", "S");
    ];
  Table.print table;
  print_newline ();
  print_endline
    "Prior compilers cannot map ResNet18 or VGG16 at all (Table II). For\n\
     SqueezeNet on the constrained chip S, COMPASS beats even the\n\
     pinned-weight mapping (each partition re-replicates its layers across\n\
     the whole chip); on M/L, where everything fits comfortably, pinning\n\
     wins by exactly the per-batch weight-write cost — if a model fits and\n\
     never shares the chip, pin it."

(* -------------------------------------------------------------------- *)
(* Estimator-feature ablation                                            *)

let model_ablation () =
  section_banner "model_ablation"
    "contribution of the estimator's modeling features, ResNet18-S-16";
  let model = Compass_nn.Models.resnet18 () in
  let chip = Compass_arch.Config.chip_s in
  let units = Unit_gen.generate model chip in
  let v = Validity.build units in
  let ctx = Dataflow.context units in
  let g = Baselines.greedy v in
  let cases =
    [
      ("full model (default)", Estimator.default_options);
      ("no write overlap", { Estimator.default_options with Estimator.write_overlap = false });
      ("no on-chip buffering",
        { Estimator.default_options with Estimator.onchip_buffering = false });
      ("neither",
        {
          Estimator.default_options with
          Estimator.write_overlap = false;
          onchip_buffering = false;
        });
    ]
  in
  let table =
    Table.create ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "estimator configuration"; "latency"; "throughput"; "dram act. bytes" ]
  in
  List.iter
    (fun (label, options) ->
      let p = Estimator.evaluate ~options ctx ~batch:16 g in
      let dram_act =
        List.fold_left (fun acc sp -> acc +. sp.Estimator.io_dram_bytes) 0. p.Estimator.spans
      in
      Table.add_row table
        [
          label;
          Units.time_to_string p.Estimator.batch_latency_s;
          Printf.sprintf "%.1f/s" p.Estimator.throughput_per_s;
          Units.bytes_to_string dram_act;
        ])
    cases;
  Table.print table;
  print_newline ();
  print_endline
    "Both mechanisms the paper's architecture provides (Fig. 1 local\n\
     memories, Fig. 2 overlapped weight replacement) contribute measurable\n\
     latency; disabling them shows what a naive estimator would predict."

(* -------------------------------------------------------------------- *)
(* Quantization precision study (the paper's 4-bit assumption)          *)

let quant () =
  section_banner "quant"
    "weight precision vs storage and functional error (the 4-bit assumption)";
  let model = Compass_nn.Models.lenet5 () in
  let float_weights = Compass_nn.Executor.random_weights model in
  let input = Compass_nn.Executor.random_input model in
  let reference = Compass_nn.Executor.output model float_weights input in
  let params = Compass_nn.Graph.total_weight_params model in
  let table =
    Table.create
      ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "bits"; "storage"; "chips needed (S)"; "max |out diff|"; "weight MSE" ]
  in
  List.iter
    (fun bits ->
      let quantized = Compass_nn.Quant.quantize_weights ~bits float_weights in
      let out = Compass_nn.Executor.output model quantized input in
      let mse =
        let accum = ref 0. and n = ref 0 in
        Hashtbl.iter
          (fun node original ->
            let q = Hashtbl.find quantized node in
            accum :=
              !accum
              +. (Compass_nn.Quant.mean_squared_error ~original ~quantized:q
                 *. float_of_int (Array.length original));
            n := !n + Array.length original)
          float_weights;
        !accum /. float_of_int !n
      in
      let bytes = float_of_int (Compass_nn.Quant.storage_bits ~bits params) /. 8. in
      let chips =
        bytes /. Compass_arch.Config.capacity_bytes Compass_arch.Config.chip_s
      in
      Table.add_row table
        [
          string_of_int bits;
          Units.bytes_to_string bytes;
          Printf.sprintf "%.4f" chips;
          Printf.sprintf "%.2e" (Compass_nn.Tensor.max_abs_diff reference out);
          Printf.sprintf "%.2e" mse;
        ])
    [ 2; 3; 4; 6; 8 ];
  Table.print table;
  print_newline ();
  print_endline
    "Each extra bit doubles crossbar column usage; 4 bits (the paper's and\n\
     Jia et al.'s operating point) keeps functional error small while\n\
     halving the footprint of an 8-bit deployment."

(* -------------------------------------------------------------------- *)
(* GA stability across seeds                                            *)

let stability () =
  section_banner "stability" "GA result spread across random seeds, ResNet18-M-16";
  let model = Compass_nn.Models.resnet18 () in
  let chip = Compass_arch.Config.by_label "M" in
  let units = Unit_gen.generate model chip in
  let validity = Validity.build units in
  let ctx = Dataflow.context units in
  let results =
    List.map
      (fun seed ->
        let r =
          Ga.optimize ~params:{ Ga.default_params with Ga.seed } ctx validity ~batch:16
        in
        (seed, r.Ga.best.Ga.perf.Estimator.throughput_per_s,
         Partition.partition_count r.Ga.best.Ga.group))
      [ 1; 2; 3; 4; 5 ]
  in
  let table =
    Table.create ~aligns:[ Table.Right; Table.Right; Table.Right ]
      [ "seed"; "throughput"; "partitions" ]
  in
  List.iter
    (fun (seed, thpt, parts) ->
      Table.add_row table
        [ string_of_int seed; Printf.sprintf "%.1f/s" thpt; string_of_int parts ])
    results;
  Table.print table;
  let thpts = List.map (fun (_, t, _) -> t) results in
  let spread = (Stats.maximum thpts -. Stats.minimum thpts) /. Stats.mean thpts in
  let greedy = Estimator.evaluate ctx ~batch:16 (Baselines.greedy validity) in
  Printf.printf
    "\nspread: %.1f%% of mean; worst seed still beats greedy (%.1f/s) by %.2fx.\n"
    (100. *. spread) greedy.Estimator.throughput_per_s
    (Stats.minimum thpts /. greedy.Estimator.throughput_per_s)

(* -------------------------------------------------------------------- *)
(* Parallel GA evaluation: wall-clock speedup and determinism           *)

let parallel () =
  section_banner "parallel"
    "GA search wall-clock vs worker domains (-j), VGG16-S-16";
  let model = Compass_nn.Models.vgg16 () in
  let chip = Compass_arch.Config.chip_s in
  let units = Unit_gen.generate model chip in
  let validity = Validity.build units in
  let ctx = Dataflow.context units in
  let batch = 16 in
  let run jobs =
    let params = { Ga.default_params with Ga.seed = 42; Ga.jobs = jobs } in
    let t0 = Unix.gettimeofday () in
    let r = Ga.optimize ~params ctx validity ~batch in
    (Unix.gettimeofday () -. t0, r)
  in
  Printf.printf "host: %d recommended domains\n\n" (Domain.recommended_domain_count ());
  let t1, r1 = run 1 in
  let table =
    Table.create ~aligns:[ Table.Right; Table.Right; Table.Right; Table.Left ]
      [ "jobs"; "wall clock"; "speedup"; "identical to j=1" ]
  in
  Table.add_row table [ "1"; Printf.sprintf "%.2f s" t1; "1.00x"; "-" ];
  List.iter
    (fun jobs ->
      let t, r = run jobs in
      let identical =
        Partition.equal r.Ga.best.Ga.group r1.Ga.best.Ga.group
        && r.Ga.best.Ga.fitness = r1.Ga.best.Ga.fitness
        && r.Ga.history = r1.Ga.history
      in
      Table.add_row table
        [
          string_of_int jobs;
          Printf.sprintf "%.2f s" t;
          Printf.sprintf "%.2fx" (t1 /. t);
          (if identical then "yes" else "NO (BUG)");
        ])
    [ 2; 4; 8 ];
  Table.print table;
  print_newline ();
  print_endline
    "Candidate evaluation fans out over a persistent domain pool; mutation,\n\
     selection and all RNG draws stay on the main domain, so the search\n\
     result is bit-identical for every -j (verified above).  Speedup tracks\n\
     the physical core count; on a single-core host the extra domains only\n\
     add scheduling overhead."

(* -------------------------------------------------------------------- *)
(* Fault tolerance: degraded-capacity compilation, repair, endurance    *)

let faults () =
  section_banner "faults"
    "graceful degradation under core faults, plan repair, endurance accounting";
  let open Compass_arch in
  let batch = 16 in
  (* Latency-degradation curve: ResNet18 at batch 16 on each chip, with k
     randomly chosen dead cores (fixed seed so the table is reproducible). *)
  let dead_counts = [ 0; 1; 2; 4 ] in
  let table =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "chip"; "dead"; "usable"; "latency"; "throughput"; "slowdown" ]
  in
  List.iter
    (fun chip_label ->
      let chip = Config.by_label chip_label in
      let model = Compass_nn.Models.by_name "resnet18" in
      let mpc = chip.Config.core.Config.macros_per_core in
      let baseline = ref nan in
      List.iter
        (fun k ->
          let faults =
            if k = 0 then None
            else
              Some
                (Fault.of_string
                   (Printf.sprintf "random:dead=%d" k)
                   ~seed:2026 ~cores:chip.Config.cores ~macros_per_core:mpc)
          in
          let p = Compiler.compile ?faults ~model ~chip ~batch Compiler.Greedy in
          let lat = p.Compiler.perf.Estimator.batch_latency_s in
          if k = 0 then baseline := lat;
          Table.add_row table
            [
              chip_label;
              string_of_int k;
              Printf.sprintf "%d/%d" (chip.Config.cores - k) chip.Config.cores;
              Units.time_to_string lat;
              Printf.sprintf "%.1f/s" p.Compiler.perf.Estimator.throughput_per_s;
              Printf.sprintf "%.2fx" (lat /. !baseline);
            ])
        dead_counts)
    chips;
  Table.print table;
  print_newline ();
  print_endline
    "The mapper re-packs around dead cores: losing 1-2 of 16 cores costs\n\
     far less than the proportional capacity because first-fit slack\n\
     absorbs most of the loss; the small chip S, already tight on\n\
     capacity, degrades fastest.";
  (* Mid-run fault injection and plan repair. *)
  print_newline ();
  let chip = Config.by_label "M" in
  let model = Compass_nn.Models.by_name "resnet18" in
  let p = Compiler.compile ~model ~chip ~batch Compiler.Greedy in
  let scenario = "dead:3,11;degraded:5=8" in
  let faults =
    Fault.of_string scenario ~seed:0 ~cores:chip.Config.cores
      ~macros_per_core:chip.Config.core.Config.macros_per_core
  in
  let healthy = Compiler.measure p in
  let at_s = healthy.Compiler.sim.Compass_isa.Sim.makespan_s /. 3. in
  (match Compiler.measure_with_faults p ~at_s ~faults with
  | Error e -> Printf.printf "repair failed: %s\n" e
  | Ok run ->
    Printf.printf
      "mid-run failure on resnet18-M-%d (greedy): scenario \"%s\" at t=%s\n"
      batch scenario (Units.time_to_string at_s);
    Printf.printf "  faulted run: %s makespan, %d instructions dropped on cores %s\n"
      (Units.time_to_string run.Compiler.faulted_sim.Compass_isa.Sim.makespan_s)
      run.Compiler.faulted_sim.Compass_isa.Sim.dropped_instructions
      (String.concat ","
         (List.map string_of_int run.Compiler.faulted_sim.Compass_isa.Sim.dead_cores));
    let r = run.Compiler.repair in
    Printf.printf "  repair: %s, latency %s -> %s (%.2fx degradation)\n"
      (match r.Compiler.strategy with
      | Compiler.Unchanged -> "re-mapped only"
      | Compiler.Remapped n -> Printf.sprintf "re-split %d span(s)" n
      | Compiler.Recompiled -> "full recompile")
      (Units.time_to_string r.Compiler.latency_before_s)
      (Units.time_to_string r.Compiler.latency_after_s)
      r.Compiler.degradation;
    Printf.printf "  recovery latency (abort + rerun on repaired plan): %s\n"
      (Units.time_to_string run.Compiler.recovery_latency_s));
  (* Endurance accounting against the ReRAM write budget. *)
  print_newline ();
  let budget =
    Option.value ~default:1e6 Technology.reram.Technology.endurance_cycles
  in
  let plans =
    List.map
      (fun (m, c) -> plan m c batch Compiler.Greedy)
      [ ("resnet18", "S"); ("resnet18", "M"); ("vgg16", "S"); ("squeezenet", "S") ]
  in
  Printf.printf "endurance at the ReRAM budget (%.0e writes/cell):\n" budget;
  Table.print (Report.endurance_table ~endurance_cycles:budget plans);
  print_newline ();
  print_endline
    "Partition-by-partition weight replacement rewrites each macro once per\n\
     batch at most; the worst macro column drives lifetime, so larger\n\
     batches and fewer partitions both extend it (see also the envm\n\
     section and the wear objective, --objective wear)."

(* -------------------------------------------------------------------- *)
(* Exact DP vs the GA: optimality gaps and estimator-evaluation counts  *)

let dp () =
  section_banner "dp" "exact DP partitioning: optimality gap and search cost";
  List.iter
    (fun (model_name, chip_label, batch) ->
      let model = Compass_nn.Models.by_name model_name in
      let chip = Compass_arch.Config.by_label chip_label in
      Printf.printf "\n%s-%s-%d (objective latency):\n" model_name chip_label batch;
      let t0 = Unix.gettimeofday () in
      let dp_result, rows = Report.optimality_gap ~model ~chip ~batch () in
      let t1 = Unix.gettimeofday () in
      Table.print (Report.optimality_gap_table ~objective:Fitness.Latency (dp_result, rows));
      let s = dp_result.Optimal.stats in
      Printf.printf
        "dp: %d valid spans, %d span evaluations, %d edges, %d group evaluation(s)\n"
        s.Optimal.valid_spans s.Optimal.spans_evaluated s.Optimal.edges_relaxed
        s.Optimal.group_evaluations;
      let ga =
        match (plan model_name chip_label batch Compiler.Compass).Compiler.ga with
        | Some ga -> ga
        | None -> assert false
      in
      Printf.printf
        "ga: %d group evaluations, %d distinct spans — %.0fx more group \
         evaluations than the DP\n"
        ga.Ga.evaluations ga.Ga.cache_spans
        (float_of_int ga.Ga.evaluations /. float_of_int s.Optimal.group_evaluations);
      Printf.printf "all four schemes (shared span cache): %.1f ms\n"
        (1000. *. (t1 -. t0)))
    [ ("resnet18", "S", 16); ("resnet18", "M", 16) ]

(* -------------------------------------------------------------------- *)
(* Bechamel micro-benchmarks                                            *)

let micro () =
  section_banner "micro" "Bechamel micro-benchmarks of the compiler's hot paths";
  let open Bechamel in
  let resnet = Compass_nn.Models.resnet18 () in
  let chip = Compass_arch.Config.chip_s in
  let units = Unit_gen.generate resnet chip in
  let validity = Validity.build units in
  let ctx = Dataflow.context units in
  let ctx_no_table = Dataflow.context ~span_table:false units in
  let mid_stop = Validity.max_end validity 0 in
  let greedy = Baselines.greedy validity in
  let trace = [ Compass_dram.Trace.read ~addr:0 ~bytes:(1 lsl 20) () ] in
  let tests =
    Test.make_grouped ~name:"compass"
      [
        Test.make ~name:"table2/model_summary"
          (Staged.stage (fun () -> Compass_nn.Summary.of_graph resnet));
        Test.make ~name:"fig5/unit_generation"
          (Staged.stage (fun () -> Unit_gen.generate resnet chip));
        Test.make ~name:"fig5/validity_build"
          (Staged.stage (fun () -> Validity.build units));
        Test.make ~name:"fig6/span_perf"
          (Staged.stage (fun () ->
               Estimator.span_perf ctx ~batch:16 ~start_:0 ~stop:mid_stop));
        Test.make ~name:"fig6/group_evaluate"
          (Staged.stage (fun () -> Estimator.evaluate ctx ~batch:16 greedy));
        Test.make ~name:"fig6/group_evaluate_no_table"
          (Staged.stage (fun () -> Estimator.evaluate ctx_no_table ~batch:16 greedy));
        Test.make ~name:"fig7/schedule_build"
          (Staged.stage (fun () -> Scheduler.build ctx greedy ~batch:4 ()));
        Test.make ~name:"fig10/ga_quick"
          (Staged.stage (fun () ->
               Ga.optimize
                 ~params:
                   {
                     Ga.quick_params with
                     Ga.population = 8;
                     generations = 2;
                     n_sel = 3;
                     n_mut = 5;
                   }
                 ctx validity ~batch:16));
        Test.make ~name:"dp/optimize_cold"
          (Staged.stage (fun () -> Optimal.optimize ctx validity ~batch:16));
        Test.make ~name:"dp/optimize_warm"
          (* Every span pre-cached: measures the pure DP sweep. *)
          (let warm = Estimator.Span_cache.create ~batch:16 () in
           ignore (Optimal.optimize ~cache:warm ctx validity ~batch:16);
           Staged.stage (fun () -> Optimal.optimize ~cache:warm ctx validity ~batch:16));
        Test.make ~name:"dram/replay_1MB"
          (Staged.stage (fun () -> Compass_dram.Dram.simulate trace));
        Test.make ~name:"dram/replay_1MB_bank_interleaved"
          (* Every (bank, row) run is one burst: no streak to collapse. *)
          (Staged.stage (fun () ->
               Compass_dram.Dram.simulate ~mapping:Compass_dram.Controller.Bank_interleaved
                 trace));
      ]
  in
  let cfg = Benchmark.cfg ~limit:400 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let table =
    Table.create ~aligns:[ Table.Left; Table.Right; Table.Right ]
      [ "benchmark"; "time/run"; "r2" ]
  in
  let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [] in
  List.iter
    (fun (name, result) ->
      let time_ns =
        match Analyze.OLS.estimates result with Some (t :: _) -> t | _ -> nan
      in
      let r2 = Option.value ~default:nan (Analyze.OLS.r_square result) in
      Table.add_row table
        [ name; Units.time_to_string (time_ns *. 1e-9); Printf.sprintf "%.4f" r2 ])
    (List.sort compare rows);
  Table.print table

(* -------------------------------------------------------------------- *)
(* Self-healing recovery: ABFT detection overhead and escalation        *)

let recover () =
  section_banner "recover"
    "ABFT detection overhead (budget: <5% simulated latency) and recovery \
     escalation";
  (* Detection overhead: the same plan lowered with and without per-chunk
     Check instructions, run through the chip simulator.  The checksum
     probe is VFU-rate work pipelined with compute, so it must stay well
     under the 5% latency budget. *)
  let table =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Left ]
      [ "config"; "makespan"; "+abft"; "overhead"; "est share"; "verdict" ]
  in
  let worst = ref 0. in
  List.iter
    (fun (model_name, chip_label) ->
      let p = plan model_name chip_label 16 Compiler.Greedy in
      let base = Compiler.measure p in
      let abft = Compiler.measure ~abft:true p in
      let base_s = base.Compiler.sim.Compass_isa.Sim.makespan_s in
      let abft_s = abft.Compiler.sim.Compass_isa.Sim.makespan_s in
      let overhead = (abft_s /. base_s) -. 1. in
      worst := max !worst overhead;
      let options = { Estimator.default_options with Estimator.abft = true } in
      let perf = Estimator.evaluate ~options p.Compiler.ctx ~batch:16 p.Compiler.group in
      let check_s =
        List.fold_left (fun a s -> a +. s.Estimator.check_s) 0. perf.Estimator.spans
      in
      Table.add_row table
        [
          Printf.sprintf "%s-%s-16" model_name chip_label;
          Units.time_to_string base_s;
          Units.time_to_string abft_s;
          Printf.sprintf "%.2f%%" (100. *. overhead);
          Printf.sprintf "%.2f%%" (100. *. check_s /. perf.Estimator.batch_latency_s);
          (if overhead < 0.05 then "PASS" else "FAIL");
        ])
    [ ("lenet5", "S"); ("resnet18", "S"); ("resnet18", "M"); ("squeezenet", "S") ];
  Table.print table;
  Printf.printf "worst detection overhead: %.2f%% (budget 5%%) %s\n" (100. *. !worst)
    (if !worst < 0.05 then "PASS" else "FAIL");
  (* Escalation behaviour: one inference under each cell-fault class. *)
  print_newline ();
  let model = Compass_nn.Models.by_name "lenet5" in
  let chip = Compass_arch.Config.chip_s in
  let p = plan "lenet5" "S" 16 Compiler.Greedy in
  let weights = Compass_nn.Executor.random_weights model in
  let input = Compass_nn.Executor.random_input model in
  let mpc = chip.Compass_arch.Config.core.Compass_arch.Config.macros_per_core in
  let esc =
    Table.create
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Left; Table.Left ]
      [ "scenario"; "checks"; "detected"; "retries"; "remaps"; "outcome"; "bit-identical" ]
  in
  List.iter
    (fun spec ->
      let faults =
        Compass_arch.Fault.of_string spec ~seed:0
          ~cores:chip.Compass_arch.Config.cores ~macros_per_core:mpc
      in
      let r = Recovery.run ~seed:42 ~faults ~weights ~input p in
      Table.add_row esc
        [
          spec;
          string_of_int r.Recovery.checks;
          string_of_int r.Recovery.detections;
          string_of_int r.Recovery.retries;
          string_of_int r.Recovery.remaps;
          (match r.Recovery.outcome with
          | Recovery.Clean -> "clean"
          | Recovery.Healed -> "healed"
          | Recovery.Degraded_output -> "degraded");
          string_of_bool r.Recovery.bit_identical;
        ])
    [ "none"; "transient:2"; "flip:1"; "drift:1e-06" ];
  Table.print esc;
  print_newline ();
  print_endline
    "Transients clear on retry; persistent flips and drift need one core\n\
     retirement + plan repair; every healed run is bit-identical to the\n\
     fault-free reference (exact integer checksums, zero false negatives)."

(* -------------------------------------------------------------------- *)
(* Observability: instrumentation overhead, enabled vs disabled         *)

let observe () =
  section_banner "observe"
    "tracing/metrics instrumentation overhead (budget: <2% enabled)";
  let model = Compass_nn.Models.resnet18 () in
  let chip = Compass_arch.Config.chip_s in
  let prepared = Compiler.prepare ~model ~chip () in
  let params = { Ga.quick_params with Ga.seed = 7 } in
  let compile () =
    ignore
      (Compiler.compile_prepared ~ga_params:params ~batch:16 prepared Compiler.Compass)
  in
  let time_one () =
    let t0 = Unix.gettimeofday () in
    compile ();
    Unix.gettimeofday () -. t0
  in
  let repeats = 15 in
  let sample () =
    let a = Array.init repeats (fun _ -> time_one ()) in
    Array.sort compare a;
    a.(repeats / 2)
  in
  compile ();
  (* warm-up *)
  let off = sample () in
  Trace.enable ();
  Metrics.enable ();
  let on_ = sample () in
  Trace.disable ();
  Metrics.disable ();
  Trace.reset ();
  Metrics.reset ();
  let overhead = 100. *. ((on_ /. off) -. 1.) in
  Printf.printf "disabled: %s/compile (median of %d)\nenabled:  %s/compile\n"
    (Units.time_to_string off) repeats
    (Units.time_to_string on_);
  Printf.printf "observe overhead: %.2f%% (budget 2%%) %s\n" overhead
    (if overhead < 2. then "PASS" else "FAIL")

(* -------------------------------------------------------------------- *)
(* Inference kernels: im2col/GEMM vs naive, batched serving rate        *)

let infer () =
  section_banner "infer"
    "im2col/GEMM kernel speedup vs naive (floor: >=3x on resnet18) and \
     batched serving rate";
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  (* vgg16's naive forward pass takes ~1.5 min; keep the default run
     CI-affordable and include it only on request. *)
  let full = Sys.getenv_opt "COMPASS_BENCH_INFER_FULL" <> None in
  let names = if full then [ "squeezenet"; "resnet18"; "vgg16" ] else [ "squeezenet"; "resnet18" ] in
  let table =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Left ]
      [ "model"; "naive"; "gemm"; "speedup"; "bit-identical" ]
  in
  let gate = ref 0. in
  List.iter
    (fun name ->
      let model = Compass_nn.Models.by_name name in
      let weights = Compass_nn.Executor.random_weights ~seed:11 model in
      let input = Compass_nn.Executor.random_input ~seed:42 model in
      let naive_s, naive_out =
        time (fun () ->
            Compass_nn.Executor.output ~engine:Compass_nn.Executor.Naive model weights input)
      in
      (* Median of 3 for the fast engine; the naive pass is slow enough
         that a single run is stable. *)
      let runs =
        Array.init 3 (fun _ ->
            time (fun () ->
                Compass_nn.Executor.output ~engine:Compass_nn.Executor.Gemm model weights input))
      in
      Array.sort compare runs;
      let gemm_s, gemm_out = runs.(1) in
      let speedup = naive_s /. gemm_s in
      if name = "resnet18" then gate := speedup;
      Table.add_row table
        [
          name;
          Units.time_to_string naive_s;
          Units.time_to_string gemm_s;
          Printf.sprintf "%.1fx" speedup;
          (if Compass_nn.Tensor.equal ~eps:0. naive_out gemm_out then "yes" else "NO");
        ])
    names;
  Table.print table;
  Printf.printf "infer speedup floor (resnet18, >=3x): %.1fx %s\n" !gate
    (if !gate >= 3. then "PASS" else "FAIL");
  (* Serving rate: batched traversal amortizes graph walking and weight
     lookups across samples; on multi-core hosts a pool fans samples out. *)
  print_newline ();
  let model = Compass_nn.Models.by_name "resnet18" in
  let weights = Compass_nn.Executor.random_weights ~seed:11 model in
  let serving =
    Table.create
      ~aligns:[ Table.Right; Table.Right; Table.Right ]
      [ "batch"; "total"; "images/s" ]
  in
  List.iter
    (fun batch ->
      let inputs =
        Array.init batch (fun i -> Compass_nn.Executor.random_input ~seed:(42 + i) model)
      in
      let batch_s, _ =
        time (fun () -> Compass_nn.Executor.output_batch model weights inputs)
      in
      Table.add_row serving
        [
          string_of_int batch;
          Units.time_to_string batch_s;
          Printf.sprintf "%.2f" (float_of_int batch /. batch_s);
        ])
    [ 1; 2; 4; 8 ];
  Table.print serving;
  (* Partitioned replay inherits the kernels: same plan, same bits.  The
     chip preset changes the partition count, not the arithmetic. *)
  print_newline ();
  let input = Compass_nn.Executor.random_input ~seed:42 model in
  let reference = Compass_nn.Executor.output model weights input in
  List.iter
    (fun chip_label ->
      let p = plan "resnet18" chip_label 16 Compiler.Greedy in
      let replay_s, replay =
        time (fun ()
              -> Partition_exec.run ~engine:Compass_nn.Executor.Gemm p.Compiler.ctx
                   p.Compiler.group weights input)
      in
      Printf.printf
        "partitioned replay (resnet18-%s, %d partitions, gemm): %s, bit-identical %s\n"
        chip_label replay.Partition_exec.partitions_executed
        (Units.time_to_string replay_s)
        (if Compass_nn.Tensor.equal ~eps:0. reference replay.Partition_exec.output then "yes"
         else "NO"))
    [ "S"; "M"; "L" ]

(* -------------------------------------------------------------------- *)
(* Chaos machinery: disabled-failpoint overhead and supervision cost    *)

(* Every site the libraries guard; keep in sync with docs/FORMATS.md. *)
let failpoint_sites =
  [
    "artifact.write.open"; "artifact.write.mid"; "artifact.write.syscall";
    "artifact.write.fsync"; "artifact.write.rename"; "artifact.append.open";
    "artifact.append.mid"; "artifact.append.syscall"; "artifact.read";
    "pool.task"; "plan_text.save"; "plan_text.checkpoint.save";
    "plan_text.checkpoint.load"; "ga.evaluate"; "ga.generation";
    "compiler.prepare"; "compiler.compile"; "explore.point"; "executor.batch";
  ]

let chaos () =
  section_banner "chaos"
    "failpoint guard overhead on the disabled path (budget: <1% of a compile)";
  (* ns per guard, disarmed: the only cost every production run pays. *)
  Failpoint.clear ();
  let time_guards calls =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to calls do
      Failpoint.guard "bench.probe"
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int calls *. 1e9
  in
  let disabled_ns = time_guards 10_000_000 in
  (* Armed but matching nothing: the worst realistic cost while a
     schedule targets some other site. *)
  let armed_ns =
    Failpoint.with_schedule "no.such.site=raise@always" (fun () ->
        time_guards 1_000_000)
  in
  Printf.printf "guard: disabled %.2f ns/call, armed non-matching %.0f ns/call\n"
    disabled_ns armed_ns;
  (* Guards traversed by one compile, counted under an armed schedule
     that never fires (hit counters only run while armed). *)
  let model = Compass_nn.Models.resnet18 () in
  let chip = Compass_arch.Config.chip_s in
  let prepared = Compiler.prepare ~model ~chip () in
  let params = { Ga.quick_params with Ga.seed = 7 } in
  let compile () =
    ignore
      (Compiler.compile_prepared ~ga_params:params ~batch:16 prepared Compiler.Compass)
  in
  compile ();
  (* warm-up *)
  let guards =
    Failpoint.with_schedule "no.such.site=raise@always" (fun () ->
        compile ();
        List.fold_left (fun acc s -> acc + Failpoint.hits s) 0 failpoint_sites)
  in
  (* Compile wall clock with failpoints disarmed (median). *)
  let repeats = 9 in
  let samples =
    Array.init repeats (fun _ ->
        let t0 = Unix.gettimeofday () in
        compile ();
        Unix.gettimeofday () -. t0)
  in
  Array.sort compare samples;
  let compile_s = samples.(repeats / 2) in
  (* A/B medians of a whole compile cannot resolve a sub-0.1% effect
     above scheduler noise, so the gate is analytic: guards per compile
     times the measured per-guard cost, over the compile time. *)
  let overhead = float_of_int guards *. disabled_ns *. 1e-9 /. compile_s in
  Printf.printf
    "compile: %d guard sites traversed, %s median wall clock (disarmed)\n" guards
    (Units.time_to_string compile_s);
  Printf.printf "chaos overhead: %.4f%% (budget 1%%) %s\n" (100. *. overhead)
    (if overhead < 0.01 then "PASS" else "FAIL");
  (* Supervision cost: the retry machinery only acts after a failure, so
     a clean phase should pay nothing measurable. *)
  print_newline ();
  let xs = Array.init 200 Fun.id in
  let work x =
    let acc = ref 0 in
    for i = 1 to 20_000 do
      acc := !acc + ((x * i) mod 97)
    done;
    !acc
  in
  Pool.with_pool ~jobs:2 (fun pool ->
      let time_map supervision =
        let t0 = Unix.gettimeofday () in
        for _ = 1 to 5 do
          ignore (Pool.map ?supervision pool work xs)
        done;
        (Unix.gettimeofday () -. t0) /. 5.
      in
      ignore (time_map None);
      (* warm-up *)
      let plain = time_map None in
      let supervised = time_map (Some (Pool.supervision ~retries:2 ())) in
      Printf.printf
        "pool phase (200 tasks, jobs=2): plain %s, supervised %s (%.1f%% delta, \
         informational)\n"
        (Units.time_to_string plain)
        (Units.time_to_string supervised)
        (100. *. ((supervised /. plain) -. 1.)))

(* -------------------------------------------------------------------- *)
(* Serving runtime: envelope floor, dispatch overhead, latency tail     *)

let serve () =
  section_banner "serve"
    "serving-engine envelope floor, dispatch overhead vs a direct call \
     (budget: <5%) and request latency quantiles";
  let open Compass_serve in
  Metrics.reset ();
  Metrics.enable ();
  let not_ok = ref 0 in
  let server =
    Server.create
      ~respond:(fun r ->
        match r.Protocol.status with
        | Protocol.Ok | Protocol.Degraded -> ()
        | _ -> incr not_ok)
      ()
  in
  Fun.protect ~finally:(fun () ->
      Server.close server;
      Metrics.disable ();
      Metrics.reset ())
  @@ fun () ->
  (* Envelope floor: a ping exercises parse + admission + dispatch +
     response assembly and no compiler work at all. *)
  let pings = 10_000 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to pings do
    Server.submit server [ Printf.sprintf "request p%d ping" i ]
  done;
  let ping_s = Unix.gettimeofday () -. t0 in
  Printf.printf "envelope floor: %d pings in %s (%.1f us/request)\n" pings
    (Units.time_to_string ping_s)
    (ping_s /. float_of_int pings *. 1e6);
  (* Dispatch overhead: the same inference done through a request
     envelope and as a direct library call.  The engine's path adds
     parsing, admission, budget plumbing and digesting — it must stay
     a rounding error next to the forward passes themselves. *)
  let model_name = "squeezenet" and batch = 2 and seed = 11 in
  let model = Compass_nn.Models.by_name model_name in
  let digest out =
    let data = Compass_nn.Tensor.to_array out in
    let b = Buffer.create (8 * Array.length data) in
    Array.iter (fun v -> Buffer.add_int64_le b (Int64.bits_of_float v)) data;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let direct () =
    let weights = Compass_nn.Executor.random_weights ~seed model in
    let inputs =
      Array.init batch (fun i ->
          Compass_nn.Executor.random_input ~seed:(seed + 100 + i) model)
    in
    let outputs = Compass_nn.Executor.output_batch model weights inputs in
    Array.iter (fun out -> ignore (digest out)) outputs
  in
  let engine () =
    Server.submit server
      [
        "request bench-infer infer";
        Printf.sprintf "model %s" model_name;
        Printf.sprintf "batch %d" batch;
        Printf.sprintf "seed %d" seed;
      ];
    while Server.step server do
      ()
    done
  in
  let median f =
    f ();
    (* warm-up *)
    let a =
      Array.init 5 (fun _ ->
          let t0 = Unix.gettimeofday () in
          f ();
          Unix.gettimeofday () -. t0)
    in
    Array.sort compare a;
    a.(2)
  in
  let direct_s = median direct in
  let engine_s = median engine in
  let overhead = 100. *. ((engine_s /. direct_s) -. 1.) in
  Printf.printf
    "infer %s batch %d: direct %s, via engine %s (medians of 5)\n" model_name
    batch
    (Units.time_to_string direct_s)
    (Units.time_to_string engine_s);
  Printf.printf "serve dispatch overhead: %.2f%% (budget 5%%) %s\n" overhead
    (if overhead < 5. then "PASS" else "FAIL");
  (* Latency tail over a mixed workload, read back from the same
     serve.latency_s histogram the daemon flushes with --metrics. *)
  let compile i =
    [
      Printf.sprintf "request c%d compile" i;
      "model lenet5";
      "chip S";
      "batch 4";
      Printf.sprintf "seed %d" i;
    ]
  in
  for i = 1 to 4 do
    Server.submit server (compile i);
    engine ()
  done;
  while Server.step server do
    ()
  done;
  let count =
    Option.value ~default:0 (Metrics.find_int "serve.latency_s.count")
  in
  let q p =
    match Metrics.quantile "serve.latency_s" p with
    | Some v -> Units.time_to_string v
    | None -> "n/a"
  in
  Printf.printf "latency (%d timed requests): p50 %s, p99 %s\n" count (q 0.5)
    (q 0.99);
  Printf.printf "serve responses all ok: %s\n"
    (if !not_ok = 0 then "PASS" else Printf.sprintf "FAIL (%d not ok)" !not_ok)

(* -------------------------------------------------------------------- *)

let sections =
  [
    ("table1", table1);
    ("table2", table2);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("validate", validate);
    ("ablation", ablation);
    ("envm", envm);
    ("quant", quant);
    ("stability", stability);
    ("onchip", onchip);
    ("model_ablation", model_ablation);
    ("parallel", parallel);
    ("faults", faults);
    ("recover", recover);
    ("dp", dp);
    ("micro", micro);
    ("observe", observe);
    ("infer", infer);
    ("chaos", chaos);
    ("serve", serve);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst sections
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown section %s (available: %s)\n" name
          (String.concat ", " (List.map fst sections));
        exit 2)
    requested;
  Printf.printf "\nDone: %s\n" (String.concat ", " requested)
