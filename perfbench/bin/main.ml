(* End-to-end benchmark of the twq inference stack.

   Usage:
     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads (see perfbench/README.md for why each exists):
     offline-dense   full-width CIFAR ResNet-20, F4 tap-wise int8,
                     8x3x32x32 batches back to back through the plan
     offline-pruned  the same model pruned to Winograd-domain density 0.3
     serve-fleet     the `twq publish` default model (ResNet-20 width/2,
                     3x8x8) behind router -> shard daemon -> batcher,
                     open-loop Poisson arrivals at 100 req/s

   The model is exported (built, quantized, pruned, published to a
   registry directory) before any clock starts; inputs and the arrival
   schedule come from --seed, model weights do not.  Every result is
   checked bit for bit against the reference interpreter.  The last line
   of standard output is one JSON object: end-to-end metrics with
   --trace 0, per-layer metrics with --trace 1 (which also writes a
   Chrome trace under .perfbench/). *)

open Common

type workload = { wname : string; spec : Artifact.spec; serve : bool }

let workloads =
  [
    {
      wname = "offline-dense";
      spec = { Artifact.width_div = 1; res = 32; density = None };
      serve = false;
    };
    {
      wname = "offline-pruned";
      spec = { Artifact.width_div = 1; res = 32; density = Some 0.3 };
      serve = false;
    };
    {
      wname = "serve-fleet";
      spec = { Artifact.width_div = 2; res = 8; density = None };
      serve = true;
    };
  ]

(* Program knobs that would make two runs execute different programs. *)
let knobs =
  [
    "TWQ_GEMM_MR"; "TWQ_GEMM_NR"; "TWQ_GEMM_KC"; "TWQ_SPARSE_THRESHOLD";
    "TWQ_FAULT_SPEC"; "TWQ_NUM_DOMAINS";
  ]

(* Set-up is repeated and its median reported; each set-up is followed
   by a few host-speed probes.  A fleet set-up takes a few tens of
   milliseconds, an offline one about half a second. *)
let setup_reps ~serve = if serve then 25 else 15
let setup_probes = 3

(* Host-speed probes after each offline batch: about 8% of the phase. *)
let batch_probes = 2

(* Offline inputs cycle through a few seeded batches, so that every timed
   batch can be checked against a reference computed once per batch. *)
let pool_batches = 2

(* A fixed rate below saturation: at 150 req/s over two connections the
   median latency already drifted with the queue, at 100 req/s it held. *)
let serve_rate = 100.
let connections = 2
let serve_slo = 0.050

(* An offline operation is one batch; its limit is far above a healthy
   batch time, so slo_attained only drops on failures or gross stalls. *)
let offline_limit = 2.0

(* Replies checked against the reference per open-loop phase. *)
let serve_sample = 200

(* How long the traced serve-fleet run times its batch-8 plan alone. *)
let serve_plan_s = 2.

(* Closed-loop round-trip probes per path; offline workloads probe with
   every image of their input pool. *)
let serve_probes = 200
let prune_density = 0.3

type counts = { mutable attempted : int; mutable failed : int }

let count c ok =
  c.attempted <- c.attempted + 1;
  if not ok then c.failed <- c.failed + 1

type metric = Perfbench.Report.metric

module Hostspeed = Perfbench.Hostspeed

let m name value unit : metric = { Perfbench.Report.name; value; unit }
let ms s = s *. 1e3

(* ------------------------------------------------------------ tracing *)

(* In a traced run every odd operation records its spans and every even
   one does not.  The tracing overhead is then the difference between
   the two halves' medians, taken over the same minutes on the same
   machine, and the per-layer numbers come from the traced half. *)
let off = Spans.create ~enabled:false
let recorder ~trace spans i = if trace && i land 1 = 1 then spans else off

let traced_half a = List.filteri (fun i _ -> i land 1 = 1) (Array.to_list a)
let untraced_half a = List.filteri (fun i _ -> i land 1 = 0) (Array.to_list a)
let p50 l = Pstats.percentile (sorted l) 50.
let p50_ms l = p50 (List.map ms l)
let tail_ms l = snd (Pstats.tail (sorted (List.map ms l)) ~want:99.)
let sum l = List.fold_left ( +. ) 0. l

(* The end-to-end metrics: the gated ones from the values the workload
   computed, and operation latency — the median and the tail, the highest
   percentile up to p99 that the sample supports — as measured, printed
   and recorded but not gated (see README.md, "Noise"). *)
let end_to_end ~setup_s ~images_per_s ~lat_s ~slo =
  let a = sorted (List.map ms lat_s) in
  let p, tail = Pstats.tail a ~want:99. in
  let p50 = Pstats.percentile a 50. in
  ( [
      m "setup_s" setup_s "s";
      m "images_per_s" images_per_s "img/s";
      m "slo_attained" slo "share";
      m "peak_rss_mb" (peak_rss_mb ()) "MB";
    ],
    [ m "latency_p50_ms" p50 "ms"; m "latency_p99_ms" tail "ms" ],
    [
      ("latency_samples", Json.Num (float_of_int (Array.length a)));
      ("latency_p50_ms", Json.Num p50);
      ("latency_p99_ms", Json.Num tail);
      ("latency_tail_percentile", Json.Num p);
    ] )

(* Set-up, [reps] times.  Each set-up is followed by host probes
   that restate its time at reference speed, and all but the last are
   released before the next starts, so that one set-up's state is live
   when the measured phase begins.  [sample s] is what the caller keeps
   of each; [total] reads the set-up time from it. *)
type ('a, 'b) setups = {
  last : 'a;
  samples : 'b list;
  setup_s : float;  (** median set-up time at reference speed *)
  raw_setup_s : float;  (** median set-up time as measured *)
  setup_slowdown : float;  (** median host slowdown after a set-up *)
}

let repeat_setup ~reps ~setup ~release ~ok ~sample ~total counts =
  let rec go r acc =
    let s = setup () in
    let slow = Hostspeed.slowdown (Hostspeed.probes setup_probes) in
    count counts (ok s);
    let acc = (sample s, slow) :: acc in
    if r + 1 < reps then (
      release s;
      go (r + 1) acc)
    else
      {
        last = s;
        samples = List.rev_map fst acc;
        setup_s = Pstats.median (List.map (fun (x, slow) -> total x /. slow) acc);
        raw_setup_s = Pstats.median (List.map (fun (x, _) -> total x) acc);
        setup_slowdown = Pstats.median (List.map snd acc);
      }
  in
  go 0 []

let setup_notes st =
  [
    ("setup_reps", Json.Num (float_of_int (List.length st.samples)));
    ("raw_setup_s", Json.Num st.raw_setup_s);
    ("setup_host_slowdown", Json.Num st.setup_slowdown);
  ]

(* ------------------------------------------------------------ offline *)

type offline_phase = {
  lat : float array;  (** Plan.execute per batch, seconds, in run order *)
  slot : float array;  (** batch start to the end of its bookkeeping *)
  ok : bool array;
  alloc : float array;  (** minor words allocated inside Plan.execute *)
  busy : float;  (** wall time of the phase minus the host probes *)
  slowdown : float;  (** host slowdown over the phase *)
}

(* Batches back to back for [seconds], cycling through the input pool,
   each followed by [batch_probes] host-speed probes; every output is compared with
   its reference after the clock stops. *)
let measure_offline plan pool refs ~seconds ~spans_for =
  let lat = ref [] and slot = ref [] and outs = ref [] and alloc = ref [] in
  let probes = ref [] in
  let t_start = now () in
  let i = ref 0 in
  while now () -. t_start < seconds do
    let k = !i mod Array.length pool in
    let m0 = Gc.minor_words () in
    let t0 = now () in
    let y = Plan.execute plan pool.(k) in
    let t1 = now () in
    alloc := (Gc.minor_words () -. m0) :: !alloc;
    ignore (Spans.record (spans_for !i) ~req:!i "nn.plan.execute" ~t0 ~t1);
    lat := (t1 -. t0) :: !lat;
    outs := (k, y) :: !outs;
    slot := (now () -. t0) :: !slot;
    probes := Hostspeed.probes batch_probes @ !probes;
    incr i
  done;
  let wall = now () -. t_start in
  let of_list l = Array.of_list (List.rev l) in
  {
    lat = of_list !lat;
    slot = of_list !slot;
    ok =
      Array.of_list
        (List.rev_map
           (fun (k, (y : Tensor.t)) -> same_bits y.Tensor.data refs.(k).Tensor.data)
           !outs);
    alloc = of_list !alloc;
    busy = wall -. sum !probes;
    slowdown = Hostspeed.slowdown !probes;
  }

(* ------------------------------------------------------------- serving *)

type checker = int -> float array -> bool option
(** [checker i logits]: [Some ok] when request [i] is in the checked
    sample, [None] otherwise. *)

let tally counts (check : checker) replies =
  Array.iteri
    (fun i r ->
      count counts
        (match r.Fleet.status with
        | Fleet.Answered { logits; _ } -> Option.value (check i logits) ~default:true
        | Fleet.Rejected _ | Fleet.Lost _ -> false))
    replies

let answered replies =
  List.filter_map
    (fun r ->
      match r.Fleet.status with
      | Fleet.Answered { queue_wait; service; _ } ->
          Some (r.Fleet.fin -. r.Fleet.due, queue_wait, service)
      | Fleet.Rejected _ | Fleet.Lost _ -> None)
    (Array.to_list replies)

let latencies replies = List.map (fun (l, _, _) -> l) (answered replies)

(* Requests answered with correct logits within [limit] seconds of their
   due time, as a share of all requests. *)
let slo_share (check : checker) replies ~limit =
  let hits = ref 0 in
  Array.iteri
    (fun i r ->
      match r.Fleet.status with
      | Fleet.Answered { logits; _ }
        when r.Fleet.fin -. r.Fleet.due <= limit
             && Option.value (check i logits) ~default:true ->
          incr hits
      | _ -> ())
    replies;
  float_of_int !hits /. float_of_int (Array.length replies)

(* Cumulative fleet counters, read before and after an open-loop phase. *)
type fleet_counters = {
  batch_sum : float;
  batch_count : float;
  routed : int;
  redone : int;  (** routed requests that needed a retry, spill or failover *)
}

let fleet_counters f =
  let batch_sum, batch_count = Fleet.batch_sizes f in
  let c = Fleet.router_counter f in
  {
    batch_sum;
    batch_count;
    routed = c "routed";
    redone = c "retries" + c "spills" + c "failovers";
  }

(* Arrival offsets (seconds from the start) of a Poisson process at
   [rate] conditioned on [n] arrivals in [n / rate] seconds: sorted
   uniform points.  Every seed then offers exactly [rate], so the
   schedule's own sampling noise does not show up as a throughput
   change. *)
let poisson_offsets rng ~rate n =
  let horizon = float_of_int n /. rate in
  let a = Array.init n (fun _ -> Rng.float rng horizon) in
  Array.sort Float.compare a;
  a

(* The serving layers around one open-loop phase ([replies], between the
   counter readings [c0] and [c1]), plus unloaded closed-loop probes
   straight to the shard and through the router, alternating. *)
let serving_layers (f : Fleet.t) ~c0 ~c1 ~replies ~probe_inputs ~probe_check counts
    spans =
  let direct, via_router =
    match
      Fleet.closed_loop ~inputs:probe_inputs spans
        ~targets:
          [
            (f.Fleet.shard_sock, "serve.shard.request");
            (f.Fleet.router_sock, "serve.router.request");
          ]
    with
    | [ d; r ] -> (d, r)
    | _ -> assert false
  in
  tally counts probe_check direct;
  tally counts probe_check via_router;
  let rtt = p50_ms (latencies direct) in
  let ans = answered replies in
  let routed = c1.routed - c0.routed and redone = c1.redone - c0.redone in
  [
    m "serve.shard.rtt_ms" rtt "ms";
    m "serve.router.hop_ms" (p50_ms (latencies via_router) -. rtt) "ms";
    m "serve.server.queue_wait_ms.p50" (p50_ms (List.map (fun (_, q, _) -> q) ans)) "ms";
    m "serve.server.queue_wait_ms.p99" (tail_ms (List.map (fun (_, q, _) -> q) ans)) "ms";
    m "serve.server.service_ms.p50" (p50_ms (List.map (fun (_, _, s) -> s) ans)) "ms";
    m "serve.batcher.batch_size_mean"
      ((c1.batch_sum -. c0.batch_sum) /. Float.max 1. (c1.batch_count -. c0.batch_count))
      "count";
    m "serve.router.first_try_share"
      (float_of_int (max 0 (routed - redone)) /. float_of_int (max 1 routed))
      "share";
    m "serve.loadgen.lateness_p99_ms"
      (tail_ms (Array.to_list (Array.map (fun r -> r.Fleet.sent -. r.Fleet.due) replies)))
      "ms";
  ]

(* ------------------------------------------------------------- layers *)

(* Set-up, export and compute layers of one plan. *)
let plan_layers ~load_s ~compile_s ~warm_s ~(ex : Artifact.exported) ~prune_s
    ~execute_ms ~alloc_words plan cache =
  let sparse, total = Plan.wino_sparsity cache in
  [
    m "serve.registry.load_s" load_s "s";
    m "nn.plan.compile_s" compile_s "s";
    m "nn.plan.warm_s" warm_s "s";
    m "serve.registry.artifact_bytes" (float_of_int ex.Artifact.artifact_bytes) "bytes";
    m "nn.quantize_s" ex.Artifact.quantize_s "s";
    m "nn.prune_s" prune_s "s";
    m "nn.plan.execute_ms" execute_ms "ms";
    m "nn.alloc_minor_words" alloc_words "words";
    m "nn.plan.arena_bytes" (float_of_int (Plan.arena_words plan * (Sys.word_size / 8))) "bytes";
    m "nn.wino_sparse_taps" (float_of_int sparse /. float_of_int (max 1 total)) "share";
  ]

(* Pruning is export work: timed where the workload prunes, and on the
   other workloads timed once more on the exported model so every
   traced run reports it. *)
let prune_seconds (ex : Artifact.exported) spans =
  match ex.Artifact.prune_s with
  | Some s -> s
  | None ->
      Spans.with_span spans "nn.prune" (fun _ ->
          snd (timed (fun () -> Int_graph.prune ex.Artifact.graph ~density:prune_density)))

let replay_layers ~seed (w : workload) graph ~execute_ms spans =
  let st = Replay.stages ~seed ~res:w.spec.Artifact.res graph spans in
  if List.length st <> 3 then die "expected 3 ResNet-20 stages, found %d" (List.length st);
  let total f = List.fold_left (fun a s -> a +. (float_of_int s.Replay.layers *. f s)) 0. st in
  let tapwise = total (fun s -> s.Replay.tapwise_ms)
  and gemm = total (fun s -> s.Replay.gemm_ms) in
  ( List.concat_map
      (fun s ->
        let k = s.Replay.index in
        [
          m (Printf.sprintf "quant.tapwise_ms.stage%d" k) s.Replay.tapwise_ms "ms";
          m (Printf.sprintf "winograd.gemm_ms.stage%d" k) s.Replay.gemm_ms "ms";
          m (Printf.sprintf "winograd.gemm_gmacs.stage%d" k) s.Replay.gemm_gmacs "GMAC/s";
        ])
      st
    @ [
        m "quant.transform_share" (1. -. (gemm /. tapwise)) "share";
        m "nn.replay_coverage" (tapwise /. execute_ms) "share";
      ],
    Json.Arr
      (List.map
         (fun s ->
           Json.Str
             (Printf.sprintf "stage%d = c%d at %dx%d: %d layers, %d/%d sparse taps"
                s.Replay.index s.Replay.channels s.Replay.spatial s.Replay.spatial
                s.Replay.layers s.Replay.sparse_taps s.Replay.taps))
         st) )

let wire_layers ~input ~logits spans =
  let encode_us, decode_us = Replay.wire_codec ~input ~logits spans in
  [ m "serve.wire.encode_us" encode_us "us"; m "serve.wire.decode_us" decode_us "us" ]

let trace_layers ~overhead_ms ~coverage =
  [ m "trace.overhead_ms" overhead_ms "ms"; m "trace.span_coverage" coverage "share" ]

(* ---------------------------------------------------------- workloads *)

type outcome = {
  e2e : metric list;  (** the gated end-to-end metrics *)
  latency : metric list;  (** end-to-end, printed but not gated *)
  layers : metric list;
  counts : counts;
  notes : (string * Json.t) list;
  spans : Spans.t;
  coverage : float;
}

let image (batches : Tensor.t array) j =
  let b = batches.(j / Artifact.batch) in
  Tensor.of_array (Array.sub b.Tensor.shape 1 3) (row b (j mod Artifact.batch))

let run_offline (w : workload) ~seed ~seconds ~trace ~run_dir =
  let spans = Spans.create ~enabled:trace in
  let counts = { attempted = 0; failed = 0 } in
  let dir = Filename.concat run_dir "registry" in
  let ex = Artifact.export w.spec ~dir spans in
  let dense_oracle = w.spec.Artifact.density <> None in
  let rng = Rng.create seed in
  let res = w.spec.Artifact.res in
  let gen () =
    Tensor.rand_gaussian rng [| Artifact.batch; 3; res; res |] ~mu:0.0 ~sigma:1.0
  in
  let warm = gen () in
  let pool = Array.init pool_batches (fun _ -> gen ()) in
  let warm_ref, refs =
    Spans.with_span spans "reference" (fun _ ->
        ( Artifact.reference ~dense_oracle ex.Artifact.graph warm,
          Array.map (Artifact.reference ~dense_oracle ex.Artifact.graph) pool ))
  in
  let st =
    repeat_setup counts ~reps:(setup_reps ~serve:false)
      ~setup:(fun () -> Artifact.setup_offline ~dir ~warm ~warm_ref spans)
      ~release:ignore
      ~ok:(fun s -> s.Artifact.answer_ok)
      ~sample:(fun s -> s.Artifact.timings)
      ~total:(fun t -> t.Artifact.total_s)
  in
  let last = st.last in
  Gc.compact ();
  let ph =
    measure_offline last.Artifact.plan pool refs ~seconds ~spans_for:(recorder ~trace spans)
  in
  Array.iter (count counts) ph.ok;
  let n = Array.length ph.lat in
  let within =
    List.length
      (List.filter Fun.id
         (List.mapi (fun i l -> ph.ok.(i) && l <= offline_limit) (Array.to_list ph.lat)))
  in
  let raw_images_per_s = float_of_int (n * Artifact.batch) /. ph.busy in
  let e2e, latency, e2e_notes =
    end_to_end ~setup_s:st.setup_s ~images_per_s:(raw_images_per_s *. ph.slowdown)
      ~lat_s:(Array.to_list ph.lat)
      ~slo:(float_of_int within /. float_of_int n)
  in
  let notes =
    ("operation", Json.Str "one batch of 8 images")
    :: ("latency_limit_ms", Json.Num (ms offline_limit))
    :: ("host_slowdown", Json.Num ph.slowdown)
    :: ("raw_images_per_s", Json.Num raw_images_per_s)
    :: (e2e_notes @ setup_notes st)
  in
  if not trace then { e2e; latency; layers = []; counts; notes; spans; coverage = 0. }
  else begin
    let median_of f = Pstats.median (List.map f st.samples) in
    let execute_ms = p50_ms (traced_half ph.lat) in
    let coverage = sum (traced_half ph.lat) /. sum (traced_half ph.slot) in
    let compute =
      plan_layers ~ex ~prune_s:(prune_seconds ex spans) ~execute_ms
        ~load_s:(median_of (fun t -> t.Artifact.load_s))
        ~compile_s:(median_of (fun t -> t.Artifact.compile_s))
        ~warm_s:(median_of (fun t -> t.Artifact.warm_s))
        ~alloc_words:(Pstats.median (traced_half ph.alloc))
        last.Artifact.plan last.Artifact.cache
    in
    let replay, stages = replay_layers ~seed w ex.Artifact.graph ~execute_ms spans in
    let wire = wire_layers ~input:(image pool 0) ~logits:(row refs.(0) 0) spans in
    (* The serving layers, probed on this workload's own model: one
       fleet, an open loop at a fifth of the measured single-image
       round-trip rate, then unloaded round trips. *)
    let probe_inputs = Array.init (pool_batches * Artifact.batch) (image pool) in
    let probe_check j logits =
      Some (same_bits logits (row refs.(j / Artifact.batch) (j mod Artifact.batch)))
    in
    let fs =
      Fleet.setup ~dir ~run_dir ~seed ~warm:(image pool 0) ~warm_ref:(row refs.(0) 0) spans
    in
    count counts fs.Fleet.answer_ok;
    let f = fs.Fleet.fleet in
    let serving =
      Fun.protect
        ~finally:(fun () -> Fleet.stop f)
        (fun () ->
          let warmup =
            List.hd
              (Fleet.closed_loop ~inputs:(Array.sub probe_inputs 0 4) spans
                 ~targets:[ (f.Fleet.shard_sock, "serve.warmup") ])
          in
          tally counts probe_check warmup;
          let rate = 0.2 /. p50 (latencies warmup) in
          let offsets =
            poisson_offsets (Rng.create (seed + 1)) ~rate (Array.length probe_inputs)
          in
          let c0 = fleet_counters f in
          let replies, _ =
            Fleet.open_loop ~path:f.Fleet.router_sock ~connections ~inputs:probe_inputs
              ~offsets ~spans_for:(fun _ -> spans)
          in
          let c1 = fleet_counters f in
          tally counts probe_check replies;
          serving_layers f ~c0 ~c1 ~replies ~probe_inputs ~probe_check counts spans)
    in
    let overhead_ms = p50_ms (traced_half ph.slot) -. p50_ms (untraced_half ph.slot) in
    {
      e2e;
      latency;
      layers =
        compute @ replay @ wire @ serving @ trace_layers ~overhead_ms ~coverage;
      counts;
      notes = notes @ [ ("stages", stages) ];
      spans;
      coverage;
    }
  end

let run_serve (w : workload) ~seed ~seconds ~trace ~run_dir =
  let spans = Spans.create ~enabled:trace in
  let counts = { attempted = 0; failed = 0 } in
  let dir = Filename.concat run_dir "registry" in
  let ex = Artifact.export w.spec ~dir spans in
  let rng = Rng.create seed in
  let dims = Artifact.input_dims w.spec in
  let n = int_of_float (Float.round (serve_rate *. seconds)) in
  let gen () = Tensor.rand_gaussian rng dims ~mu:0.0 ~sigma:1.0 in
  let warm = gen () in
  let inputs = Array.init n (fun _ -> gen ()) in
  let offsets = poisson_offsets (Rng.split rng) ~rate:serve_rate n in
  (* A seeded sample of requests, checked against the interpreter run on
     the same inputs in one batch (rows are independent). *)
  let sample =
    let idx = Array.init n Fun.id in
    Rng.shuffle (Rng.split rng) idx;
    Array.sub idx 0 (min n serve_sample)
  in
  let stack xs =
    Tensor.of_array
      (Array.append [| Array.length xs |] dims)
      (Array.concat (Array.to_list (Array.map (fun (x : Tensor.t) -> x.Tensor.data) xs)))
  in
  let refs = Hashtbl.create (Array.length sample) in
  let warm_ref =
    Spans.with_span spans "reference" (fun _ ->
        let y =
          Artifact.reference ex.Artifact.graph
            (stack (Array.append [| warm |] (Array.map (fun i -> inputs.(i)) sample)))
        in
        Array.iteri (fun j i -> Hashtbl.replace refs i (row y (j + 1))) sample;
        row y 0)
  in
  let check i logits = Option.map (same_bits logits) (Hashtbl.find_opt refs i) in
  let st =
    repeat_setup counts ~reps:(setup_reps ~serve:true)
      ~setup:(fun () -> Fleet.setup ~dir ~run_dir ~seed ~warm ~warm_ref spans)
      ~release:(fun s -> Fleet.stop s.Fleet.fleet)
      ~ok:(fun s -> s.Fleet.answer_ok)
      ~sample:(fun s -> s.Fleet.total_s)
      ~total:Fun.id
  in
  let f = st.last.Fleet.fleet in
  Fun.protect ~finally:(fun () -> Fleet.stop f) @@ fun () ->
  Gc.compact ();
  let c0 = fleet_counters f in
  let replies, wall =
    Fleet.open_loop ~path:f.Fleet.router_sock ~connections ~inputs ~offsets
      ~spans_for:(recorder ~trace spans)
  in
  let c1 = fleet_counters f in
  tally counts check replies;
  let e2e, latency, e2e_notes =
    end_to_end ~setup_s:st.setup_s
      ~images_per_s:(float_of_int (List.length (answered replies)) /. wall)
      ~lat_s:(latencies replies)
      ~slo:(slo_share check replies ~limit:serve_slo)
  in
  let notes =
    [
      ("operation", Json.Str "one single-image request");
      ("offered_rate", Json.Num serve_rate);
      ("connections", Json.Num (float_of_int connections));
      ("latency_limit_ms", Json.Num (ms serve_slo));
      ("checked_sample", Json.Num (float_of_int (Array.length sample)));
    ]
    @ e2e_notes @ setup_notes st
  in
  if not trace then { e2e; latency; layers = []; counts; notes; spans; coverage = 0. }
  else begin
    let probe_inputs = Array.sub inputs 0 (min n serve_probes) in
    let serving =
      serving_layers f ~c0 ~c1 ~replies ~probe_inputs ~probe_check:check counts spans
    in
    let overall r = r.Fleet.fin -. r.Fleet.due and spanned r = r.Fleet.fin -. r.Fleet.sent in
    let coverage =
      sum (List.map spanned (traced_half replies)) /. sum (List.map overall (traced_half replies))
    in
    let overhead_ms =
      p50_ms (List.map overall (traced_half replies))
      -. p50_ms (List.map overall (untraced_half replies))
    in
    (* The plan itself, outside the fleet: set up the batch-8 plan the
       batcher forms under load, then run it back to back on batches of
       the workload's own inputs, each checked against the interpreter. *)
    let pool =
      Array.init pool_batches (fun b ->
          stack (Array.sub inputs (b * Artifact.batch) Artifact.batch))
    in
    let pool_refs = Array.map (Artifact.reference ex.Artifact.graph) pool in
    let s =
      Artifact.setup_offline ~dir ~warm:pool.(0) ~warm_ref:pool_refs.(0) spans
    in
    count counts s.Artifact.answer_ok;
    let ph =
      measure_offline s.Artifact.plan pool pool_refs ~seconds:serve_plan_s
        ~spans_for:(fun _ -> spans)
    in
    Array.iter (count counts) ph.ok;
    let execute_ms = p50_ms (Array.to_list ph.lat) in
    let t = s.Artifact.timings in
    let compute =
      plan_layers ~ex ~prune_s:(prune_seconds ex spans) ~execute_ms ~load_s:t.Artifact.load_s
        ~compile_s:t.Artifact.compile_s ~warm_s:t.Artifact.warm_s
        ~alloc_words:(Pstats.median (Array.to_list ph.alloc))
        s.Artifact.plan s.Artifact.cache
    in
    let replay, stages = replay_layers ~seed w ex.Artifact.graph ~execute_ms spans in
    let wire = wire_layers ~input:warm ~logits:warm_ref spans in
    {
      e2e;
      latency;
      layers = compute @ replay @ wire @ serving @ trace_layers ~overhead_ms ~coverage;
      counts;
      notes = notes @ [ ("stages", stages) ];
      spans;
      coverage;
    }
  end

(* ---------------------------------------------------------------- main *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  offline-dense | offline-pruned | serve-fleet");
      ("--seed", Arg.Set_int seed, "N  input and schedule seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S  length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1  1 = per-layer run with a Chrome trace");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench";
  let w =
    match List.find_opt (fun w -> w.wname = !workload) workloads with
    | Some w -> w
    | None -> die "unknown workload %S" !workload
  in
  if !seed < 0 then die "--seed must be given and >= 0";
  if !seconds < 1 then die "--seconds must be given and >= 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  (match List.filter (fun k -> Sys.getenv_opt k <> None) knobs with
  | [] -> ()
  | set -> die "refusing to run with program knobs set: %s" (String.concat ", " set));
  (* Kernels on one domain; the second core is left to the harness and
     the fleet's threads. *)
  Twq.Parallel.set_num_domains 1;
  let trace = !trace = 1 and seed = !seed and seconds = float_of_int !seconds in
  let out_dir = ".perfbench" in
  let run_dir = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  remove_tree run_dir;
  mkdir_p run_dir;
  at_exit (fun () -> remove_tree run_dir);
  let o = (if w.serve then run_serve else run_offline) w ~seed ~seconds ~trace ~run_dir in
  let trace_file =
    if not trace then None
    else
      let path =
        Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" w.wname seed)
      in
      let oc = open_out path in
      output_string oc
        (Spans.to_chrome_json
           ~lanes:[ (0, "harness"); (1, "sender-1"); (2, "sender-2") ]
           (Spans.spans o.spans));
      close_out oc;
      Some path
  in
  let cfg = Microkernel.config () in
  let info =
    Json.Obj
      ([
         ("workload", Json.Str w.wname);
         ("seed", Json.Num (float_of_int seed));
         ("seconds", Json.Num seconds);
         ("trace", Json.Bool trace);
         ("ocaml", Json.Str Sys.ocaml_version);
         ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
         ("kernel_domains", Json.Num (float_of_int (Twq.Parallel.num_domains ())));
         ( "microkernel",
           Json.Obj
             [
               ("mr", Json.Num (float_of_int cfg.Microkernel.mr));
               ("nr", Json.Num (float_of_int cfg.Microkernel.nr));
               ("kc", Json.Num (float_of_int cfg.Microkernel.kc));
             ] );
         ("sparse_threshold", Json.Num (Microkernel.sparse_threshold ()));
         ("attempted", Json.Num (float_of_int o.counts.attempted));
         ("succeeded", Json.Num (float_of_int (o.counts.attempted - o.counts.failed)));
         ("failed", Json.Num (float_of_int o.counts.failed));
       ]
      @ o.notes
      @ match trace_file with Some p -> [ ("trace_file", Json.Str p) ] | None -> [])
  in
  let print_metric (x : metric) =
    Printf.printf "%-16s %-34s %14.6g %s\n" w.wname x.Perfbench.Report.name
      x.Perfbench.Report.value x.Perfbench.Report.unit
  in
  List.iter print_metric (o.e2e @ o.latency);
  List.iter print_metric o.layers;
  Printf.printf "%-16s operations: %d attempted, %d succeeded, %d failed\n" w.wname
    o.counts.attempted (o.counts.attempted - o.counts.failed) o.counts.failed;
  if trace then begin
    List.iter
      (fun (name, self) ->
        Printf.printf "%-16s self time of %-31s %14.3f ms\n" w.wname name (ms self))
      (Spans.self_time_by_name (Spans.spans o.spans));
    Printf.printf "%-16s trace: %s (spans cover %.1f%% of the traced operations' time)\n" w.wname
      (Option.get trace_file) (100. *. o.coverage)
  end;
  print_endline (Json.to_string info);
  let correct = o.counts.failed = 0 in
  print_endline
    (Perfbench.Report.result_line ~correct ~attempted:o.counts.attempted
       ~failed:o.counts.failed
       (if trace then o.layers else o.e2e));
  exit (if correct then 0 else 1)
