(* simulate_grid: one op is one of the grid's plans lowered, simulated and
   DRAM-replayed ([Compiler.measure]'s path).  The plans are compiled during
   set-up, so no search runs in the timed region. *)

module Compiler = Compass_core.Compiler
module Scheduler = Compass_core.Scheduler
module Sim = Compass_isa.Sim
module Controller = Compass_dram.Controller

(* Host seconds one pass over the 72 plans took when the benchmark was
   defined. *)
let nominal_pass_s = 6.5

type env = {
  plans : Compiler.t array;
  problems : string list array;  (** set-up checks of each plan *)
}

let setup ~seed =
  let per_config =
    Array.to_list (Grid.configs ~seed)
    |> List.map (fun c ->
           let plans = Grid.compile c in
           (plans, Grid.check_plans (Grid.label c) plans))
  in
  let plans = List.concat_map fst per_config in
  let problems =
    List.concat_map (fun (plans, problems) -> List.map (fun _ -> problems) plans) per_config
  in
  { plans = Array.of_list plans; problems = Array.of_list problems }

(* What one measurement must reproduce when the same plan is measured
   again. *)
type outcome = {
  makespan_s : float;
  energy_j : float;
  dram : Controller.stats;
}

(* Read and write bursts a DRAM trace asks for, counted from its records:
   each record covers the bursts of [Scheduler.dram_stats]'s default
   device that its byte range touches. *)
let trace_bursts (records : Compass_dram.Trace.record list) =
  let size = Compass_dram.Timing.burst_bytes Compass_dram.Timing.lpddr3_1600 in
  List.fold_left
    (fun (reads, writes) (r : Compass_dram.Trace.record) ->
      let n = ((r.addr + r.bytes - 1) / size) - (r.addr / size) + 1 in
      match r.kind with
      | Compass_dram.Trace.Read -> (reads + n, writes)
      | Compass_dram.Trace.Write -> (reads, writes + n))
    (0, 0) records

(* Checks of a measurement against the schedule it ran and the DRAM trace
   it replayed. *)
let check_measurement label (sched : Scheduler.t) (sim : Sim.result) (dram : Controller.stats) =
  let executed = List.length sim.Sim.events in
  let reads, writes = trace_bursts sim.Sim.dram_trace in
  List.filter_map Fun.id
    [
      (if executed = sched.Scheduler.instruction_count then None
       else
         Some
           (Printf.sprintf "%s: simulated %d instructions of %d scheduled" label executed
              sched.Scheduler.instruction_count));
      (if dram.Controller.reads = reads && dram.Controller.writes = writes then None
       else
         Some
           (Printf.sprintf "%s: DRAM replayed %d reads and %d writes; the trace asks for %d and %d"
              label dram.Controller.reads dram.Controller.writes reads writes));
      (if Float.is_finite sim.Sim.makespan_s && sim.Sim.makespan_s > 0. then None
       else Some (label ^ ": non-positive makespan"));
    ]

let run env ~seed ~seconds ~traced =
  let order =
    Grid.op_order ~seed ~n:(Array.length env.plans) ~seconds ~nominal_s:nominal_pass_s
  in
  let latencies = Array.make (Array.length order) 0. in
  let first : (int, outcome) Hashtbl.t = Hashtbl.create 72 in
  let modeled = Array.make (Array.length env.plans) None in
  let failed = ref 0 and notes = ref [] in
  let instructions = ref 0 and executed = ref 0 and accesses = ref 0 and hits = ref 0 in
  Pass.region ~traced (fun () ->
      Array.iteri
        (fun k i ->
          let plan = env.plans.(i) in
          let label = Compiler.label plan ^ "/" ^ Compiler.scheme_to_string plan.Compiler.scheme in
          let t0 = Clock.now () in
          let sched = Compass_util.Trace.with_span "bench.schedule" (fun () -> Compiler.schedule plan) in
          let sim =
            Compass_util.Trace.with_span "bench.sim" (fun () -> Scheduler.simulate plan.Compiler.ctx sched)
          in
          let dram =
            Compass_util.Trace.with_span "bench.dram" (fun () -> Scheduler.dram_stats plan.Compiler.ctx sim)
          in
          latencies.(k) <- Clock.now () -. t0;
          instructions := !instructions + sched.Scheduler.instruction_count;
          executed := !executed + List.length sim.Sim.events;
          accesses := !accesses + dram.Controller.reads + dram.Controller.writes;
          hits := !hits + dram.Controller.row_hits;
          let outcome =
            { makespan_s = sim.Sim.makespan_s; energy_j = sim.Sim.energy_j; dram }
          in
          let repeat =
            match Hashtbl.find_opt first i with
            | None ->
              Hashtbl.add first i outcome;
              modeled.(i) <- Some (Modeled.of_sim plan sim);
              []
            | Some earlier when earlier = outcome -> []
            | Some _ -> [ label ^ ": a second measurement of the plan differs" ]
          in
          let problems = env.problems.(i) @ check_measurement label sched sim dram @ repeat in
          if problems <> [] then begin
            incr failed;
            notes := !notes @ problems
          end)
        order);
  let region_s = Array.fold_left ( +. ) 0. latencies in
  let busy = List.map (fun l -> (l, Pass.busy_s l)) [ "schedule"; "sim"; "dram" ] in
  let peak_heap_mb = Pass.peak_heap_mb () in
  let outputs =
    Array.to_list env.plans
    |> List.mapi (fun i plan ->
           let o = Hashtbl.find first i in
           Printf.sprintf "%s%h %h %d %d" (Compass_core.Plan_text.to_string plan) o.makespan_s
             o.energy_j o.dram.Controller.cycles o.dram.Controller.row_hits)
  in
  let host_rate count layer = Pass.ratio (float_of_int count) (Pass.busy_s layer) in
  {
    Pass.latencies;
    region_s;
    failed = !failed;
    notes = !notes;
    outputs = Pass.digest outputs;
    counts =
      [
        ("schedule.instructions", float_of_int !instructions);
        ("sim.instructions", float_of_int !executed);
        ("dram.accesses", float_of_int !accesses);
      ];
    layers =
      List.map (fun (l, s) -> (l ^ ".busy_s", s)) busy
      @ [
          ("sim.instrs_per_host_s", host_rate !executed "sim");
          ("dram.accesses_per_host_s", host_rate !accesses "dram");
          ("dram.row_hit_ratio", Pass.ratio (float_of_int !hits) (float_of_int !accesses));
        ];
    breakdown = busy;
    modeled = Modeled.summarize (List.filter_map Fun.id (Array.to_list modeled));
    peak_heap_mb;
  }
