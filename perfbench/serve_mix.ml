(* serve_mix: one client drives an in-process [Server] in a closed loop
   with two requests in flight, over a fixed, seeded list of requests.  One
   op is one request, from submit to response on the client's clock.  The
   executor, weight generation, serve dispatch and the pool do the work. *)

module Server = Compass_serve.Server
module Protocol = Compass_serve.Protocol
module Compiler = Compass_core.Compiler
module Ga = Compass_core.Ga
module Executor = Compass_nn.Executor
module Tensor = Compass_nn.Tensor
module Pool = Compass_util.Pool
module Rng = Compass_util.Rng

(* Server workers and requests in flight: two, or one on a one-core host. *)
let jobs () = min 2 (Domain.recommended_domain_count ())

(* The kinds follow a fixed pattern, so every run of a given length sends
   the same mix in the same order and the median and tail land on the same
   kind of request; the seed draws the weight and input seeds and the
   verify payloads.  R = resnet18 infer (batch 1), S = squeezenet
   infer (batch 2), L = lenet5 infer (batch 2), c = compile, v = verify,
   p = ping.  Each model's infers come in an even number per block, so
   half of them repeat a served pair and half are fresh. *)
let pattern = "RLScSLcSvLpcRLScSLcSvLpc"

(* Host seconds one pattern block took when the benchmark was defined. *)
let nominal_block_s = 5.0

let infer_of = function
  | 'R' -> Some ("resnet18", 1)
  | 'S' -> Some ("squeezenet", 2)
  | 'L' -> Some ("lenet5", 2)
  | _ -> None

(* Compiles rotate over three configurations under all four schemes; the
   vgg16 one runs the full GA, the others the quick one.  Their GA seeds
   are fixed: the quick GA's plans on three configurations vary too much
   from seed to seed for the modeled metrics taken from them to be held to
   a bound. *)
let compile_rotation =
  List.concat_map
    (fun (model, chip, batch, quick) ->
      List.map (fun scheme -> (model, chip, batch, quick, scheme)) Grid.schemes)
    [ ("squeezenet", "S", 16, true); ("resnet18", "M", 4, true); ("vgg16", "L", 4, false) ]
  |> Array.of_list

type tag =
  | Fresh  (** an infer whose (model, seed) pair this run has not served *)
  | Repeat  (** an infer repeating a served pair *)
  | Untagged

type env = {
  server : Server.t;
  respond : (Protocol.response -> unit) ref;
  payloads : string list array;  (** archived plans for verify requests *)
  expected : (string, string list) Hashtbl.t;  (** checked bodies, by request key *)
}

let plan_lines plan =
  match List.rev (String.split_on_char '\n' (Compass_core.Plan_text.to_string plan)) with
  | "" :: rev -> List.rev rev
  | rev -> List.rev rev

let request ~id kind f = f { Protocol.default_request with Protocol.id = string_of_int id; kind }

(* A request as the framed block [Server.submit] takes: without its [end]. *)
let block r =
  match List.rev (Protocol.request_to_lines r) with _end :: rev -> List.rev rev | [] -> []

let drain server = while Server.step server do () done

let setup ~seed =
  let payloads =
    [ ("squeezenet", "S", 4, Compiler.Optimal); ("resnet18", "M", 16, Compiler.Greedy);
      ("vgg16", "L", 4, Compiler.Layerwise) ]
    |> List.map (fun (m, c, batch, scheme) ->
           plan_lines
             (Compiler.compile ~model:(Compass_nn.Models.by_name m)
                ~chip:(Compass_arch.Config.by_label c) ~batch scheme))
    |> Array.of_list
  in
  let respond = ref ignore in
  let server =
    Server.create
      ~config:{ Server.default_config with jobs = jobs (); seed; clock = Clock.now }
      ~respond:(fun r -> !respond r)
      ()
  in
  (* Warm every request path once before anything is timed. *)
  List.iteri
    (fun id (kind, f) -> Server.submit server (block (request ~id kind f)))
    [
      (Protocol.Ping, Fun.id);
      (Protocol.Infer, fun r -> { r with Protocol.model = "lenet5"; batch = 2 });
      (Protocol.Compile, fun r -> { r with Protocol.model = "squeezenet"; quick = true });
      (Protocol.Verify, fun r -> { r with Protocol.payload = payloads.(0) });
    ];
  drain server;
  { server; respond; payloads; expected = Hashtbl.create 64 }

let close env = Server.close env.server

(* The run's requests, in order, with their fresh/repeat tags. *)
let requests env ~seed ~seconds =
  let blocks = Grid.repeats ~seconds ~nominal_s:nominal_block_s in
  let rng = Rng.create (seed + 3) in
  let served : (string, int list) Hashtbl.t = Hashtbl.create 4 in
  let used = Hashtbl.create 64 in
  let rec fresh_seed () =
    let s = Rng.int rng 1_000_000 in
    if Hashtbl.mem used s then fresh_seed ()
    else begin
      Hashtbl.add used s ();
      s
    end
  in
  let compiles = ref 0 in
  let kinds = String.concat "" (List.init blocks (fun _ -> pattern)) in
  Array.init (String.length kinds) (fun id ->
      match kinds.[id] with
      | ('R' | 'S' | 'L') as k ->
        let model, batch = Option.get (infer_of k) in
        let seen = Option.value ~default:[] (Hashtbl.find_opt served model) in
        (* Every other infer of a model repeats a pair already served. *)
        let tag, seed =
          let k = List.length seen in
          if k mod 2 = 1 then (Repeat, List.nth seen (Rng.int rng k))
          else (Fresh, fresh_seed ())
        in
        Hashtbl.replace served model (seen @ [ seed ]);
        (request ~id Protocol.Infer (fun r -> { r with Protocol.model; batch; seed }), tag)
      | 'c' ->
        let k = !compiles mod Array.length compile_rotation in
        incr compiles;
        let model, chip, batch, quick, scheme = compile_rotation.(k) in
        ( request ~id Protocol.Compile (fun r ->
              { r with Protocol.model; chip; batch; quick;
                scheme = Compiler.scheme_to_string scheme; seed = k }),
          Untagged )
      | 'v' ->
        ( request ~id Protocol.Verify (fun r ->
              { r with Protocol.payload = env.payloads.(Rng.int rng (Array.length env.payloads)) }),
          Untagged )
      | _ -> (request ~id Protocol.Ping Fun.id, Untagged))

(* ------------------------------------------------------------------ *)
(* Checks that do not trust the server                                 *)

let tensor_lines outputs =
  Array.to_list
    (Array.mapi
       (fun i out ->
         let data = Tensor.to_array out in
         let bits = Buffer.create (8 * Array.length data) in
         Array.iter (fun v -> Buffer.add_int64_le bits (Int64.bits_of_float v)) data;
         Printf.sprintf "output %d shape %s sum %s digest %s" i
           (Compass_nn.Shape.to_string (Tensor.shape out))
           (Compass_util.Artifact.float_token (Array.fold_left ( +. ) 0. data))
           (Digest.to_hex (Digest.string (Buffer.contents bits))))
       outputs)

let infer_key engine (r : Protocol.request) =
  Printf.sprintf "infer %s %d %d %s" r.model r.seed r.batch (Executor.engine_to_string engine)

let direct_infer engine (r : Protocol.request) =
  let model = Compass_nn.Models.by_name r.model in
  let weights = Executor.random_weights ~seed:r.seed model in
  let inputs = Array.init r.batch (fun i -> Executor.random_input ~seed:(r.seed + 100 + i) model) in
  tensor_lines (Executor.output_batch ~engine model weights inputs)

let compile_key (r : Protocol.request) =
  Printf.sprintf "compile %s %s %d %s %b %d" r.model r.chip r.batch r.scheme r.quick r.seed

let direct_compile (r : Protocol.request) =
  let base = if r.quick then Ga.quick_params else Ga.default_params in
  plan_lines
    (Compiler.compile
       ~ga_params:{ base with Ga.seed = r.seed; jobs = 1 }
       ~model:(Compass_nn.Models.by_name r.model)
       ~chip:(Compass_arch.Config.by_label r.chip)
       ~batch:r.batch (Compiler.scheme_of_string r.scheme))

(* The reference bodies a request's payload must equal, each with its cache
   key, how to compute it, and what it is.  [first] marks a model's first
   infer of the run, which the [Naive] engine checks too. *)
let references ~first (r : Protocol.request) =
  match r.kind with
  | Protocol.Infer ->
    let reference engine what = (infer_key engine r, (fun () -> direct_infer engine r), what) in
    reference Executor.Gemm "a direct Executor.output_batch"
    :: (if first then [ reference Executor.Naive "the naive engine" ] else [])
  | Protocol.Compile ->
    [ (compile_key r, (fun () -> direct_compile r), "a direct Compiler.compile") ]
  | Protocol.Verify | Protocol.Ping -> []

let first_infers (reqs : (Protocol.request * tag) array) =
  let seen = Hashtbl.create 4 in
  Array.map
    (fun ((r : Protocol.request), _) ->
      r.kind = Protocol.Infer
      && (not (Hashtbl.mem seen r.model))
      && (Hashtbl.add seen r.model ();
          true))
    reqs

(* Computes the reference bodies the cache lacks, on at most [jobs ()]
   domains, the slow naive ones first. *)
let fill_expected env reqs =
  let first = first_infers reqs in
  let tasks =
    List.concat (List.mapi (fun i (r, _) -> references ~first:first.(i) r) (Array.to_list reqs))
    |> List.filter (fun (key, _, _) -> not (Hashtbl.mem env.expected key))
    |> List.sort_uniq (fun (a, _, _) (b, _, _) -> compare a b)
    |> List.stable_sort (fun (a, _, _) (b, _, _) ->
           let naive k = String.ends_with ~suffix:"naive" k in
           compare (naive b) (naive a))
    |> Array.of_list
  in
  let bodies =
    Pool.with_pool ~jobs:(jobs ()) (fun pool -> Pool.map pool (fun (_, f, _) -> f ()) tasks)
  in
  Array.iteri (fun i (key, _, _) -> Hashtbl.replace env.expected key bodies.(i)) tasks

let check env reqs (responses : Protocol.response option array) =
  let first = first_infers reqs in
  Array.to_list reqs
  |> List.mapi (fun i ((r : Protocol.request), _) ->
         let label = Printf.sprintf "request %d (%s)" i (Protocol.kind_to_string r.kind) in
         match responses.(i) with
         | None -> [ label ^ ": no response" ]
         | Some resp when resp.Protocol.status <> Protocol.Ok ->
           [
             Printf.sprintf "%s: status %s (%s)" label
               (Protocol.status_to_string resp.status)
               (Option.value ~default:"" resp.note);
           ]
         | Some resp ->
           (match (r.kind, resp.body) with
            | Protocol.Ping, [ "pong" ] | Protocol.Verify, "violations 0" :: _ -> []
            | Protocol.Ping, _ -> [ label ^ ": no pong" ]
            | Protocol.Verify, _ -> [ label ^ ": verifier reports violations" ]
            | (Protocol.Infer | Protocol.Compile), _ -> [])
           @ List.concat_map
               (fun (key, _, what) ->
                 if Hashtbl.find env.expected key = resp.body then []
                 else [ Printf.sprintf "%s: payload differs from %s" label what ])
               (references ~first:first.(i) r))

(* ------------------------------------------------------------------ *)
(* The pass                                                            *)

(* The id the next new domain gets: domain ids only grow, so two probes
   bracket the domains a region spawned. *)
let next_domain_id () = Domain.join (Domain.spawn (fun () -> (Domain.self () :> int)))

(* Executor domain-seconds: each [infer.layer] span of the library,
   weighted by the domains its batch fans out onto. *)
let executor_domain_s () =
  let stacks = Hashtbl.create 4 in
  List.fold_left
    (fun acc (e : Compass_util.Trace.event) ->
      if e.name <> "infer.layer" then acc
      else
        let stack = Option.value ~default:[] (Hashtbl.find_opt stacks e.tid) in
        match (e.phase, stack) with
        | Compass_util.Trace.Begin, _ ->
          let batch = Option.fold ~none:1 ~some:int_of_string (List.assoc_opt "batch" e.args) in
          Hashtbl.replace stacks e.tid ((e.ts, min batch (jobs ())) :: stack);
          acc
        | Compass_util.Trace.End, (t0, domains) :: rest ->
          Hashtbl.replace stacks e.tid rest;
          acc +. ((e.ts -. t0) *. float_of_int domains)
        | Compass_util.Trace.End, [] -> acc)
    0. (Compass_util.Trace.events ())

let model_macs name =
  let g = Compass_nn.Models.by_name name in
  List.fold_left
    (fun acc node ->
      acc
      + Compass_nn.Graph.mvms_of g node
        * Compass_nn.Layer.weight_params (Compass_nn.Graph.layer g node).Compass_nn.Layer.op)
    0 (Compass_nn.Graph.weighted_nodes g)

let run env ~seed ~seconds ~traced =
  let reqs = requests env ~seed ~seconds in
  let n = Array.length reqs in
  let lines = Array.map (fun (r, _) -> block r) reqs in
  let submitted = Array.make n 0. and answered = Array.make n 0. and started = Array.make n nan in
  let responses = Array.make n None in
  let outstanding = ref 0 and finished = ref 0 and depth_max = ref 0 in
  (env.respond :=
     fun resp ->
       let i = int_of_string resp.Protocol.r_id in
       answered.(i) <- Clock.now ();
       responses.(i) <- Some resp;
       decr outstanding;
       incr finished);
  let queued = Queue.create () in
  let domain_before = next_domain_id () in
  let t_start = ref 0. in
  Pass.region ~traced (fun () ->
      t_start := Clock.now ();
      let next = ref 0 in
      let stalled = ref false in
      while !finished < n && not !stalled do
        while !outstanding < jobs () && !next < n do
          let i = !next in
          incr next;
          incr outstanding;
          submitted.(i) <- Clock.now ();
          Compass_util.Trace.with_span "bench.serve.submit" (fun () ->
              Server.submit env.server lines.(i));
          if responses.(i) = None then Queue.push i queued;
          depth_max := max !depth_max (Server.pending env.server)
        done;
        match Queue.take_opt queued with
        | Some i ->
          started.(i) <- Clock.now ();
          let kind = Protocol.kind_to_string (fst reqs.(i)).Protocol.kind in
          Compass_util.Trace.with_span ("bench.serve.step." ^ kind) (fun () ->
              ignore (Server.step env.server))
        | None ->
          (* Nothing left to step yet requests are unanswered: a lost
             response, which the checks report. *)
          stalled := true
      done);
  let region_s = Array.fold_left Float.max !t_start answered -. !t_start in
  let domains_spawned = next_domain_id () - domain_before - 1 in
  let peak_heap_mb = Pass.peak_heap_mb () in
  let latencies = Array.init n (fun i -> answered.(i) -. submitted.(i)) in
  (* Geomean over the infer models of each model's median service time,
     from the start of the step that runs a request to its response, over
     its infers with [tag]: every model weighs the same, and the request
     ahead of an infer in the loop does not count. *)
  let infer_p50 tag =
    List.filter_map
      (fun model ->
        match
          List.filter
            (fun i ->
              let (r : Protocol.request), t = reqs.(i) in
              r.kind = Protocol.Infer && r.model = model && t = tag)
            (List.init n Fun.id)
        with
        | [] -> None
        | is -> Some (Bstats.median (List.map (fun i -> answered.(i) -. started.(i)) is)))
      [ "resnet18"; "squeezenet"; "lenet5" ]
    |> function [] -> 0. | xs -> Compass_util.Stats.geomean xs
  in
  let executor_s = Pass.library_span_s "infer.layer" in
  let gemm_s = Pass.counter "infer.gemm_ns" *. 1e-9 in
  let macs =
    Array.fold_left
      (fun acc ((r : Protocol.request), _) ->
        if r.kind <> Protocol.Infer then acc
        else acc +. float_of_int (r.batch * model_macs r.model))
      0. reqs
  in
  let ga_s = Pass.library_span_s "ga.init_population" +. Pass.library_span_s "ga.generation" in
  let dp_s = Pass.library_span_s "dp.sweep" in
  let step kind = Pass.busy_s ("serve.step." ^ kind) in
  let waits =
    List.filter_map
      (fun i -> if Float.is_nan started.(i) then None else Some (started.(i) -. submitted.(i)))
      (List.init n Fun.id)
  in
  let layers =
    [
      ("prepare.busy_s", Pass.library_span_s "compiler.prepare");
      ("ga.busy_s", ga_s);
      ("estimator.span_cache.hit_ratio", Pass.hit_ratio ());
      ("dp.busy_s", dp_s);
      ("baselines.busy_s", Float.max 0. (Pass.library_span_s "compile.search" -. ga_s -. dp_s));
      ("executor.busy_s", executor_s);
      ("executor.gemm_share", Pass.ratio gemm_s (executor_domain_s ()));
      ("executor.macs_per_s", Pass.ratio macs executor_s);
      ("serve.submit_s", Pass.busy_s "serve.submit");
      ("serve.queue_wait_p50_s", if waits = [] then 0. else Bstats.median waits);
      ("serve.step_s.compile", step "compile");
      ("serve.step_s.infer", step "infer");
      ("serve.step_s.verify", step "verify");
      ("serve.infer.non_executor_s", step "infer" -. executor_s);
      ("serve.infer_repeat_p50_s", infer_p50 Repeat);
      ("serve.infer_fresh_p50_s", infer_p50 Fresh);
    ]
  in
  let counts =
    [
      ("ga.evaluations", Pass.counter "ga.fitness_evaluations");
      ("dp.spans_evaluated", Pass.counter "dp.spans_evaluated");
      ("dp.edges_relaxed", Pass.counter "dp.edges_relaxed");
      ("executor.im2col_bytes", Pass.counter "infer.im2col_bytes");
      ("serve.queue_depth_max", float_of_int !depth_max);
      ("pool.domains_spawned", float_of_int domains_spawned);
      ("pool.retries", Pass.counter "pool.retries");
      ("pool.task_errors", Pass.counter "pool.task_errors");
    ]
  in
  fill_expected env reqs;
  let problems = Array.of_list (check env reqs responses) in
  (* The modeled chip, from the first checked compile response of each
     (configuration, scheme). *)
  let seen = Hashtbl.create 16 in
  let modeled =
    List.concat
      (List.mapi
         (fun i ((r : Protocol.request), _) ->
           let key = (r.model, r.chip, r.batch, r.scheme) in
           match responses.(i) with
           | Some resp
             when r.kind = Protocol.Compile && problems.(i) = [] && not (Hashtbl.mem seen key) ->
             Hashtbl.add seen key ();
             let plan = Compass_core.Plan_text.of_string (String.concat "\n" resp.body ^ "\n") in
             [ Modeled.simulate plan ]
           | _ -> [])
         (Array.to_list reqs))
  in
  {
    Pass.latencies;
    region_s;
    failed = Array.fold_left (fun acc p -> if p = [] then acc else acc + 1) 0 problems;
    notes = List.concat (Array.to_list problems);
    outputs =
      Pass.digest
        (Array.to_list
           (Array.map
              (function
                | Some (r : Protocol.response) ->
                  String.concat "\n" (Protocol.status_to_string r.status :: r.body)
                | None -> "")
              responses));
    counts;
    layers;
    breakdown =
      [
        ("serve.submit", Pass.busy_s "serve.submit");
        ("serve.step.compile", step "compile");
        ("serve.infer.non_executor", step "infer" -. executor_s);
        ("executor", executor_s);
        ("serve.step.verify", step "verify");
      ];
    modeled = Modeled.summarize modeled;
    peak_heap_mb;
  }
