(* Benchmark harness: regenerates every table and figure of the paper and
   then times the computational kernel behind each one with Bechamel.

   - The regeneration pass prints the actual tables (simulator-backed
     experiments at full size; the QAT-training experiments in `fast` mode
     so the whole run stays within minutes — use `bin/main.exe run tab2
     tab3` for the paper-scale training sweep).
   - The Bechamel pass registers one Test.make per table/figure whose
     workload is that experiment's core kernel at a reduced size, plus
     micro-benchmarks of the central library kernels and paired
     sequential-vs-parallel runs of the domain-parallel hot paths
     (Winograd gconv, the F4 fp32 conv, and the network simulator
     sweep).  Set TWQ_NUM_DOMAINS to size the pool.

   Modes:
     bench/main.exe                 tables + Bechamel (interactive output)
     bench/main.exe --json [-o F]   machine-readable {kernel, mean_ns,
                                    stddev} records written to F (default
                                    BENCH_ci.json) — the CI smoke stage.
     bench/main.exe --filter RE[,RE...]
                                    restrict any mode to kernels whose
                                    name matches one of the comma-
                                    separated regexes (Str syntax) —
                                    e.g. `--filter '-micro$'` for just
                                    the GEMM microkernel rows, or
                                    `--filter 'sparse,dense'` for the
                                    pruned-execution pairs.
     bench/main.exe --list          print the selected kernel names, one
                                    per line, and exit — for discovering
                                    what --filter can match.
     bench/main.exe --compare [--strict] OLD.json NEW.json
                                    diff two --json outputs; warns on
                                    kernels whose mean regressed by more
                                    than 25%.  With --strict a tier-1
                                    regression is an error (exit 1) —
                                    CI's blocking gate, skippable with
                                    the allow-bench-regression label. *)

open Bechamel
open Toolkit
module T = Twq.Winograd.Transform
module Tensor = Twq.Tensor
module Ops = Twq.Ops
module Zoo = Twq.Nn.Zoo
module Op = Twq.Sim.Operator
module Arch = Twq.Sim.Arch
module NR = Twq.Sim.Network_runner
module Parallel = Twq.Parallel
module Registry = Twq_experiments.Registry

(* ------------------------------------------------------- table printing *)

let training_experiments = [ "tab2"; "tab3" ]

let print_all_tables () =
  List.iter
    (fun e ->
      let fast = List.mem e.Registry.name training_experiments in
      Printf.printf "==== %s — %s%s ====\n%!" e.Registry.name
        e.Registry.description
        (if fast then " [fast mode]" else "");
      print_string (e.Registry.run ~fast ());
      print_newline ())
    Registry.all

(* ----------------------------------------------------- kernel workloads *)

let rng = Twq.Rng.create 2024
let x_small = Tensor.rand_gaussian rng [| 1; 8; 16; 16 |] ~mu:0.0 ~sigma:1.0
let w_small = Tensor.rand_gaussian rng [| 8; 8; 3; 3 |] ~mu:0.0 ~sigma:0.3

let tapwise_layer =
  Twq.Quant.Tapwise.calibrate
    ~config:(Twq.Quant.Tapwise.default_config T.F4)
    ~w:w_small ~sample_inputs:[ x_small ] ~pad:1 ()

let x_int =
  Twq.Quant.Quantizer.quantize_tensor ~bits:8
    ~scale:tapwise_layer.Twq.Quant.Tapwise.s_x x_small

let synthetic_layer =
  { Zoo.name = "bench"; cin = 128; cout = 128; out_h = 32; out_w = 32; k = 3;
    stride = 1; repeat = 1 }

let weight_ensemble =
  Twq_experiments.Exp_common.resnet_like_weight_ensemble ~seed:77 ~layers:2

let qat_step =
  (* One training step of the tap-wise WA model — the Table II/III kernel. *)
  let data = Twq_experiments.Exp_common.dataset ~fast:true in
  let model =
    Twq.Nn.Qat_model.create
      { (Twq.Nn.Qat_model.default_config
           (Twq.Nn.Qat_model.Wa
              { Twq.Nn.Qat_model.variant = T.F4; wino_bits = 8; tapwise = true;
                pow2 = true; learned = true }))
        with Twq.Nn.Qat_model.classes = data.Twq.Dataset.Synth_images.classes }
      ~seed:5
  in
  let batch, labels =
    Twq.Dataset.Synth_images.batch data data.Twq.Dataset.Synth_images.train
      (Array.init 8 Fun.id)
  in
  fun () ->
    let logits = Twq.Nn.Qat_model.forward model batch in
    let loss = Twq.Autodiff.Fn.softmax_cross_entropy ~logits ~labels in
    Twq.Autodiff.Var.backward loss;
    Twq.Autodiff.Optim.zero_grads (Twq.Nn.Qat_model.params model)

(* -------------------- paired seq-vs-par domain-parallel hot-path kernels *)

let x_par = Tensor.rand_gaussian rng [| 2; 16; 24; 24 |] ~mu:0.0 ~sigma:1.0
let w_par = Tensor.rand_gaussian rng [| 16; 16; 3; 3 |] ~mu:0.0 ~sigma:0.3
let gconv44 = Twq.Winograd.Gconv.create ~m:4 ~r:3 ()

let gconv_once () =
  ignore (Twq.Winograd.Gconv.conv2d gconv44 ~pad:1 ~x:x_par ~w:w_par ())

let winof4_once () =
  ignore (Twq.Winograd.Conv.conv2d ~variant:T.F4 ~pad:1 ~x:x_par ~w:w_par ())

let netsim_once () =
  ignore (NR.run Arch.default (NR.P_winograd T.F4) (Zoo.resnet34 ()) ~batch:1)

(* The -par rows must actually run a worker pool: on boxes where
   [Domain.recommended_domain_count () = 1] (single-core CI runners) the
   pool degenerates to the sequential path and the pair times the same
   code twice — the flat gconv/qconv seq≈par rows in older baselines.
   Force at least two domains around each -par invocation (the override
   is a cheap ref write; the pool itself persists between calls).  On
   single-core hosts the pair therefore measures pool overhead; on
   multicore hosts, real scaling. *)
let par_domains = Stdlib.max 2 (Stdlib.min 4 (Parallel.num_domains ()))

let paired name f =
  [
    (name ^ "-seq", fun () -> Parallel.sequential f);
    ( name ^ "-par",
      fun () ->
        Parallel.set_num_domains par_domains;
        Fun.protect ~finally:Parallel.clear_num_domains_override f );
  ]

(* ------------------------- paired tile-major vs tap-major kernel runs *)
(* Same workload through the reference (tile-major, per-tile tensors) and
   production (tap-major, allocation-free Kernels) paths; both run
   sequentially so the pair isolates the kernel reformulation itself. *)

let xi_par =
  Twq.Itensor.init [| 2; 16; 24; 24 |] (fun _ -> Twq.Rng.int rng 255 - 127)

let wi_par =
  Twq.Itensor.init [| 16; 16; 3; 3 |] (fun _ -> Twq.Rng.int rng 255 - 127)

let tapwise_layer_par =
  Twq.Quant.Tapwise.calibrate
    ~config:(Twq.Quant.Tapwise.default_config T.F4)
    ~w:(Tensor.rand_gaussian rng [| 8; 8; 3; 3 |] ~mu:0.0 ~sigma:0.3)
    ~sample_inputs:[ Tensor.rand_gaussian rng [| 1; 8; 24; 24 |] ~mu:0.0 ~sigma:1.0 ]
    ~pad:1 ()

let xi_tapwise =
  Twq.Quant.Quantizer.quantize_tensor ~bits:8
    ~scale:tapwise_layer_par.Twq.Quant.Tapwise.s_x
    (Tensor.rand_gaussian rng [| 2; 8; 24; 24 |] ~mu:0.0 ~sigma:1.0)

let gconv45 = Twq.Winograd.Gconv.create ~m:4 ~r:5 ()
let w45_par = Tensor.rand_gaussian rng [| 16; 16; 5; 5 |] ~mu:0.0 ~sigma:0.2

let tap_vs_tile name tap tile =
  [
    (name ^ "-tap", fun () -> Parallel.sequential tap);
    (name ^ "-tile", fun () -> Parallel.sequential tile);
  ]

(* ------------------- paired microkernel vs naive per-tap GEMM runs *)
(* ResNet-ish shape (Cin = Cout = 64, 16x16) where the per-tap GEMM
   dominates: the tap-major driver with the register-tiled Microkernel
   engine against the naive triple-loop [_ref] oracle.  Both sequential,
   so the pair isolates the GEMM blocking itself. *)

module WK = Twq.Winograd.Kernels

let kf4_gemm = WK.f32_specialized T.F4
let ki4_gemm = WK.i32_specialized T.F4

let scale2_f4 =
  let s = T.bt_scale T.F4 * T.g_scale T.F4 * T.at_scale T.F4 in
  s * s

let x_gemm = Tensor.rand_gaussian rng [| 1; 64; 16; 16 |] ~mu:0.0 ~sigma:1.0
let w_gemm = Tensor.rand_gaussian rng [| 64; 64; 3; 3 |] ~mu:0.0 ~sigma:0.3

let xi_gemm =
  Twq.Itensor.init [| 1; 64; 16; 16 |] (fun _ -> Twq.Rng.int rng 255 - 127)

let wi_gemm =
  Twq.Itensor.init [| 64; 64; 3; 3 |] (fun _ -> Twq.Rng.int rng 255 - 127)

(* F(6,3) big-tile exact integer pair: the RNS per-modulus engine (CRT
   reconstruction fused into the gather) against the full-range exact
   direct path on the same tensors.  Both sequential; the pair prices
   what the residue decomposition costs in software (on hardware it is
   what makes the F6 accumulator width feasible at all). *)
let ki6_gemm = WK.i32_specialized T.F6

let scale2_f6 =
  let s = T.bt_scale T.F6 * T.g_scale T.F6 * T.at_scale T.F6 in
  s * s

let rns_plan_f6 =
  let module Rns = Twq.Winograd.Rns in
  match Rns.suggest_basis ~m:6 ~r:3 ~cin:64 () with
  | Ok basis -> Rns.plan_exn ~m:6 ~r:3 ~basis ~cin:64 ()
  | Error e -> failwith (Rns.error_to_string e)

let micro_vs_naive name micro naive =
  [
    (name ^ "-micro", fun () -> Parallel.sequential micro);
    (name ^ "-naive", fun () -> Parallel.sequential naive);
  ]

(* --------------------- paired sparse vs dense pruned per-tap GEMMs *)
(* The compressed-panel driver against the register-tiled dense GEMM on
   the same pruned packed panels — one tap of the ResNet-ish 64x64
   workload above (k = cin = 64, 64 output columns, 192 tile rows).  The
   B panel is pruned to the target density before packing, so the pair
   isolates exactly what skipping exact zeros buys at that density; the
   -dense row doubles as the guard that the dense path's numbers are
   untouched by the sparse machinery. *)

module MK = Twq.Winograd.Microkernel

let gemm_k = 64
let gemm_cols = 64

let sparse_gemm_pair density tag =
  let cfg = MK.config () in
  let mr = cfg.MK.mr and nr = cfg.MK.nr and kc = cfg.MK.kc in
  let gemm_rows_p = 48 * mr in
  let cols_p = MK.round_up gemm_cols nr in
  let r = Twq.Rng.create (4242 + int_of_float (100.0 *. density)) in
  let vp =
    Array.init (gemm_rows_p * gemm_k) (fun _ -> Twq.Rng.int r 255 - 127)
  in
  let up =
    Array.init (cols_p * gemm_k) (fun i ->
        let jb = i / (gemm_k * nr) and jr = i mod nr in
        if jb * nr + jr >= gemm_cols then 0 (* pad lane *)
        else if Twq.Rng.float r 1.0 < density then
          1 + Twq.Rng.int r 126 (* nonzero by construction *)
        else 0)
  in
  let sp = MK.compress_panel ~nr ~k:gemm_k ~cols:gemm_cols up ~uo:0 in
  let c = Array.make (gemm_rows_p * cols_p) 0 in
  [
    ( Printf.sprintf "tapwise-gemm-sparse-%s" tag,
      fun () ->
        MK.gemm_i32_sparse ~mr ~rows_p:gemm_rows_p ~sp ~vp ~vo:0 ~c ~co:0
          ~cstride:cols_p );
    ( Printf.sprintf "tapwise-gemm-dense-%s" tag,
      fun () ->
        MK.gemm_i32 ~mr ~nr ~kc ~rows_p:gemm_rows_p ~cols_p ~k:gemm_k ~vp
          ~vo:0 ~up ~uo:0 ~c ~co:0 ~cstride:cols_p );
  ]

(* ---------------------- paired batch-1 vs batch-N serving episodes *)
(* One full closed-loop serving episode (server up, 24 requests through
   the dynamic batcher, graceful drain) per run.  The batch-1/batch-8
   pair isolates what batching buys end-to-end: per-batch fixed costs
   (tap-major weight re-layout, dispatch) amortized over the batch. *)

module Serve = Twq.Serve

let serve_model, serve_dims =
  let g =
    Twq.Nn.Passes.fold_bn
      (Twq.Nn.Gmodels.resnet20 ~rng:(Twq.Rng.create 7) ~width_div:2 ())
  in
  let cal = Tensor.rand_gaussian rng [| 2; 3; 8; 8 |] ~mu:0.0 ~sigma:1.0 in
  ( Serve.Model.Graph (Twq.Nn.Int_graph.quantize g ~calibration:cal ()),
    [| 3; 8; 8 |] )

let serve_input i =
  Tensor.rand_gaussian (Twq.Rng.create (1000 + i)) [| 3; 8; 8 |] ~mu:0.0
    ~sigma:1.0

let serve_episode ~max_batch () =
  let config =
    { Serve.Server.default_config with
      Serve.Server.max_batch;
      max_delay = (if max_batch = 1 then 0.0 else 0.001);
      capacity = 64 }
  in
  let server = Serve.Server.for_model ~config serve_model ~input_dims:serve_dims () in
  let s =
    Serve.Loadgen.run ~server ~make_input:serve_input ~requests:24
      ~concurrency:8 ()
  in
  Serve.Server.shutdown server;
  assert (s.Serve.Loadgen.completed = 24)

(* ------------------------ planned vs interpreted integer inference *)

let serve_graph =
  match serve_model with Serve.Model.Graph g -> g | Serve.Model.Net _ -> assert false

let plan_input =
  Tensor.rand_gaussian (Twq.Rng.create 31) [| 4; 3; 8; 8 |] ~mu:0.0 ~sigma:1.0

let deploy_net =
  let model =
    Twq.Nn.Qat_model.create
      (Twq.Nn.Qat_model.default_config Twq.Nn.Qat_model.Fp32)
      ~seed:41
  in
  let cal =
    Tensor.rand_gaussian (Twq.Rng.create 42) [| 2; 3; 12; 12 |] ~mu:0.0 ~sigma:1.0
  in
  Twq.Nn.Deploy.export model ~calibration:cal ()

let deploy_input =
  Tensor.rand_gaussian (Twq.Rng.create 43) [| 2; 3; 12; 12 |] ~mu:0.0 ~sigma:1.0

(* ------------- paired sparse vs dense pruned end-to-end inference *)
(* The same deterministic magnitude prune of the serving ResNet-20,
   packed once with the compressed-panel driver enabled (threshold 1.0:
   every tap below full density goes sparse) and once with it disabled
   (threshold 0.0: the byte-for-byte dense path).  Identical weights,
   bit-identical logits — the pair prices the execution strategy
   alone. *)

let prune_packed ~threshold ~density graph =
  let t0 = MK.sparse_threshold () in
  MK.set_sparse_threshold threshold;
  Fun.protect
    ~finally:(fun () -> MK.set_sparse_threshold t0)
    (fun () -> Twq.Nn.Int_graph.prune graph ~density)

let sparse_graph_pair density tag =
  let sparse = prune_packed ~threshold:1.0 ~density serve_graph in
  let dense = prune_packed ~threshold:0.0 ~density serve_graph in
  [
    ( Printf.sprintf "intgraph-resnet20-sparse-%s" tag,
      fun () -> ignore (Twq.Nn.Int_graph.run sparse plan_input) );
    ( Printf.sprintf "intgraph-resnet20-dense-%s" tag,
      fun () -> ignore (Twq.Nn.Int_graph.run dense plan_input) );
  ]

(* One (name, thunk) per kernel; feeds both the Bechamel pass and the
   JSON timing pass. *)
let kernels : (string * (unit -> unit)) list =
  [
    ( "fig1-weight-transform-sweep",
      fun () ->
        List.iter
          (fun w ->
            let cout = Tensor.dim w 0 and cin = Tensor.dim w 1 in
            for co = 0 to cout - 1 do
              for ci = 0 to cin - 1 do
                let f =
                  Tensor.init [| 3; 3 |] (fun i -> Tensor.get4 w co ci i.(0) i.(1))
                in
                ignore (T.weight_tile T.F4 f)
              done
            done)
          weight_ensemble );
    ( "tab1-dfg-cse",
      fun () ->
        ignore (Twq.Hw.Dfg.apply_cse (Twq.Hw.Dfg.of_matrix (T.bt_rat T.F4))) );
    ("tab2-qat-train-step", qat_step);
    ( "tab3-qat-eval-forward",
      fun () -> ignore (Twq.Quant.Tapwise.forward tapwise_layer x_small) );
    ( "fig4-tap-error-analysis",
      fun () ->
        ignore
          (Twq.Quant.Error_analysis.winograd_error ~bits:8 ~variant:T.F4
             ~strategy:Twq.Quant.Error_analysis.W_tap
             (List.hd weight_ensemble)) );
    ( "tab4-operator-sim",
      fun () ->
        ignore (Op.run Arch.default Op.Im2col synthetic_layer ~batch:1);
        ignore (Op.run Arch.default (Op.Winograd T.F4) synthetic_layer ~batch:1) );
    ( "tab5-area-power-model",
      fun () ->
        ignore (Twq.Hw.Area_power.engine_area_mm2 Twq.Hw.Area_power.input_engine);
        ignore (Twq.Hw.Area_power.cube_tops_per_watt ~winograd:true) );
    ( "fig5-breakdown-sim",
      fun () ->
        let r = Op.run Arch.default (Op.Winograd T.F4) synthetic_layer ~batch:1 in
        ignore r.Op.busy );
    ( "tab6-nvdla-model",
      fun () ->
        let cfg = Twq.Nvdla.default ~bandwidth_words_per_s:42.7e9 in
        ignore (Twq.Nvdla.best cfg synthetic_layer ~batch:8) );
    ("tab7-network-sim-resnet34", netsim_once);
    ( "fig6-energy-accounting",
      fun () ->
        let r = Op.run Arch.default (Op.Winograd T.F4) synthetic_layer ~batch:1 in
        ignore r.Op.energy );
    ( "kernel-winograd-f4-conv-fp32",
      fun () ->
        ignore
          (Twq.Winograd.Conv.conv2d ~variant:T.F4 ~pad:1 ~x:x_small ~w:w_small ()) );
    ( "kernel-tapwise-int8-forward",
      fun () -> ignore (Twq.Quant.Tapwise.forward_int tapwise_layer x_int) );
    ( "kernel-im2col-conv-fp32",
      fun () -> ignore (Ops.conv2d_im2col ~stride:1 ~pad:1 ~x:x_small ~w:w_small ()) );
    ( "ext-graph-quantize-resnet20",
      let g =
        Twq.Nn.Passes.fold_bn
          (Twq.Nn.Gmodels.resnet20 ~rng:(Twq.Rng.create 12) ~width_div:4 ())
      in
      let cal = Tensor.rand_gaussian rng [| 1; 3; 16; 16 |] ~mu:0.0 ~sigma:1.0 in
      fun () -> ignore (Twq.Nn.Int_graph.quantize g ~calibration:cal ()) );
    ( "ext-trace-export",
      fun () ->
        let r = Op.run Arch.default (Op.Winograd T.F4) synthetic_layer ~batch:1 in
        ignore (Twq.Sim.Trace.to_chrome_json r) );
    (* ResNet-20's c16→c32 stride-2 3×3 downsampling layer, the shape
       the planner lowers to the im2col path, at batch 8 on 32×32 input:
       staged once with [Qconv.pack] as the planner does, run on one
       domain into a preallocated output. *)
    ( "qconv-resnet20-s2",
      let rng = Twq.Rng.create 20 in
      let w = Tensor.rand_gaussian rng [| 32; 16; 3; 3 |] ~mu:0.0 ~sigma:0.3 in
      let x = Tensor.rand_gaussian rng [| 8; 16; 32; 32 |] ~mu:0.0 ~sigma:1.0 in
      let l =
        Twq.Quant.Qconv.calibrate ~pow2:true ~w ~sample_inputs:[ x ] ~stride:2
          ~pad:1 ()
      in
      let xq =
        Twq.Quant.Quantizer.quantize_tensor ~bits:8 ~scale:l.Twq.Quant.Qconv.s_x x
      in
      let p = Twq.Quant.Qconv.pack l in
      let out = Twq.Itensor.zeros [| 8; 32; 16; 16 |] in
      fun () ->
        Parallel.sequential (fun () -> Twq.Quant.Qconv.forward_int_into p xq ~out) );
  ]
  @ paired "gconv" gconv_once
  @ paired "wino-f4" winof4_once
  @ paired "netsim-resnet34" netsim_once
  @ tap_vs_tile "wino-f4-fp32"
      (fun () ->
        ignore (Twq.Winograd.Conv.conv2d ~variant:T.F4 ~pad:1 ~x:x_par ~w:w_par ()))
      (fun () ->
        ignore
          (Twq.Winograd.Conv.conv2d_ref ~variant:T.F4 ~pad:1 ~x:x_par ~w:w_par ()))
  @ tap_vs_tile "wino-f2-fp32"
      (fun () ->
        ignore (Twq.Winograd.Conv.conv2d ~variant:T.F2 ~pad:1 ~x:x_par ~w:w_par ()))
      (fun () ->
        ignore
          (Twq.Winograd.Conv.conv2d_ref ~variant:T.F2 ~pad:1 ~x:x_par ~w:w_par ()))
  @ tap_vs_tile "wino-f6-fp32"
      (fun () ->
        ignore (Twq.Winograd.Conv.conv2d ~variant:T.F6 ~pad:1 ~x:x_par ~w:w_par ()))
      (fun () ->
        ignore
          (Twq.Winograd.Conv.conv2d_ref ~variant:T.F6 ~pad:1 ~x:x_par ~w:w_par ()))
  @ tap_vs_tile "wino-f4-int8"
      (fun () ->
        ignore
          (Twq.Winograd.Conv.conv2d_int_bit_true ~variant:T.F4 ~pad:1 ~x:xi_par
             ~w:wi_par ()))
      (fun () ->
        ignore
          (Twq.Winograd.Conv.conv2d_int_bit_true_ref ~variant:T.F4 ~pad:1 ~x:xi_par
             ~w:wi_par ()))
  @ tap_vs_tile "tapwise-int8"
      (fun () -> ignore (Twq.Quant.Tapwise.forward_int tapwise_layer_par xi_tapwise))
      (fun () ->
        ignore (Twq.Quant.Tapwise.forward_int_ref tapwise_layer_par xi_tapwise))
  @ micro_vs_naive "wino-f4-fp32"
      (fun () -> ignore (WK.conv2d_f32 kf4_gemm ~pad:1 ~x:x_gemm ~w:w_gemm))
      (fun () -> ignore (WK.conv2d_f32_ref kf4_gemm ~pad:1 ~x:x_gemm ~w:w_gemm))
  @ micro_vs_naive "wino-f4-int8"
      (fun () ->
        ignore
          (WK.conv2d_i32_exact ki4_gemm ~scale2:scale2_f4 ~pad:1 ~x:xi_gemm
             ~w:wi_gemm))
      (fun () ->
        ignore
          (WK.conv2d_i32_exact_ref ki4_gemm ~scale2:scale2_f4 ~pad:1 ~x:xi_gemm
             ~w:wi_gemm))
  @ [
      ( "wino-f6-rns-crt",
        fun () ->
          Parallel.sequential (fun () ->
              ignore
                (Twq.Winograd.Rns.conv2d rns_plan_f6 ~pad:1 ~x:xi_gemm
                   ~w:wi_gemm ())) );
      ( "wino-f6-rns-direct",
        fun () ->
          Parallel.sequential (fun () ->
              ignore
                (WK.conv2d_i32_exact ki6_gemm ~scale2:scale2_f6 ~pad:1
                   ~x:xi_gemm ~w:wi_gemm)) );
    ]
  @ tap_vs_tile "gconv-m4r5-fp32"
      (fun () ->
        ignore (Twq.Winograd.Gconv.conv2d gconv45 ~pad:2 ~x:x_par ~w:w45_par ()))
      (fun () ->
        ignore (Twq.Winograd.Gconv.conv2d_ref gconv45 ~pad:2 ~x:x_par ~w:w45_par ()))
  @ [
      ("serve-batch1", serve_episode ~max_batch:1);
      ("serve-batch8", serve_episode ~max_batch:8);
    ]
  (* Planned vs interpreted execution of the same integer graphs: the
     compiled plan (fused epilogues, arena reuse, zero steady-state
     allocation) against the node-by-node reference interpreter. *)
  @ [
      ( "intgraph-resnet20-planned",
        fun () -> ignore (Twq.Nn.Int_graph.run serve_graph plan_input) );
      ( "intgraph-resnet20-interp",
        fun () -> ignore (Twq.Nn.Int_graph.run_ref serve_graph plan_input) );
      ( "deploy-forward-planned",
        fun () -> ignore (Twq.Nn.Deploy.forward deploy_net deploy_input) );
      ( "deploy-forward-interp",
        fun () -> ignore (Twq.Nn.Deploy.forward_ref deploy_net deploy_input) );
    ]
  (* Sparse-vs-dense execution of pruned weights, at the per-tap GEMM
     and at the end-to-end pruned-ResNet-20 level, at 30% and 50%
     density. *)
  @ sparse_gemm_pair 0.3 "d30"
  @ sparse_gemm_pair 0.5 "d50"
  @ sparse_graph_pair 0.3 "d30"
  @ sparse_graph_pair 0.5 "d50"
  (* Fleet serving hot paths: one full wire frame encode+decode of a
     shard-sized inference request, and the router's per-request ring
     walk over a fleet-sized ring. *)
  @ [
      ( "serve-wire-roundtrip",
        let data = Array.init 192 (fun i -> float_of_int i *. 0.173) in
        fun () ->
          let frame =
            Serve.Wire.encode ~id:42L
              (Serve.Wire.Infer
                 { key = "bench-key"; deadline = None; dims = [| 3; 8; 8 |]; data })
          in
          match Serve.Wire.decode_string frame with
          | Ok _ -> ()
          | Error _ -> assert false );
      ( "router-hash",
        let ring =
          Serve.Router.Ring.create
            (List.init 8 (fun i -> Printf.sprintf "/run/twq/shard-%d.sock" i))
        in
        fun () ->
          for i = 0 to 63 do
            ignore (Serve.Router.Ring.route ring (Printf.sprintf "key-%d" i))
          done );
    ]

(* ----------------------------------------------------- bechamel harness *)

let benchmark kernels =
  let tests =
    List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) kernels
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name:"twq" ~fmt:"%s/%s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  let merged = Analyze.merge ols instances results in
  Printf.printf "%-40s %18s\n" "benchmark" "ns/run";
  Printf.printf "%s\n" (String.make 60 '-');
  Hashtbl.iter
    (fun _instance tbl ->
      let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl [] in
      List.iter
        (fun (name, ols) ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-40s %18.0f\n" name est
          | _ -> Printf.printf "%-40s %18s\n" name "n/a")
        (List.sort compare rows))
    merged

(* --------------------------------------------------------- json harness *)

(* Hand-rolled timing for CI: cheap, bounded, and dependency-light.  Each
   kernel is timed over [samples] batches of [reps] runs; mean and stddev
   are per-run nanoseconds across batches; minor heap words are
   [Gc.minor_words] deltas per run ([Gc.quick_stat].minor_words only
   advances at minor collections, undercounting low-allocation
   kernels), major words are [Gc.quick_stat] deltas.  Both are this
   domain only — kernels that farm work to pool domains allocate there
   too, but the caller's share is what steady-state serving cares
   about. *)
let time_kernel f =
  let now = Unix.gettimeofday in
  f ();
  (* warm-up + single-run estimate *)
  let t0 = now () in
  f ();
  let once = now () -. t0 in
  let reps, samples =
    if once > 1.0 then (1, 2)
    else if once > 0.05 then (1, 5)
    else (max 1 (int_of_float (0.01 /. Float.max 1e-7 once)), 7)
  in
  let per_run = Array.make samples 0.0 in
  let m0 = Gc.minor_words () in
  let g0 = Gc.quick_stat () in
  for s = 0 to samples - 1 do
    let t0 = now () in
    for _ = 1 to reps do
      f ()
    done;
    per_run.(s) <- (now () -. t0) /. float_of_int reps *. 1e9
  done;
  let g1 = Gc.quick_stat () in
  let m1 = Gc.minor_words () in
  let runs = float_of_int (samples * reps) in
  ( Twq.Stats.mean per_run,
    Twq.Stats.stddev per_run,
    (m1 -. m0) /. runs,
    (g1.Gc.major_words -. g0.Gc.major_words) /. runs )

let json_escape s =
  String.concat ""
    (List.map
       (function '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let run_json kernels out_file =
  Printf.printf "Writing %d kernel timings to %s (TWQ_NUM_DOMAINS=%d)\n%!"
    (List.length kernels) out_file (Parallel.num_domains ());
  let records =
    List.map
      (fun (name, f) ->
        let mean_ns, stddev, minor_w, major_w = time_kernel f in
        Printf.printf "  %-40s %14.0f ns  ± %-10.0f %12.0f minor-w\n%!" name
          mean_ns stddev minor_w;
        (* New fields go after stddev so older parsers' prefix scan still
           matches. *)
        Printf.sprintf
          "  {\"kernel\": \"%s\", \"mean_ns\": %.1f, \"stddev\": %.1f, \
           \"minor_w\": %.0f, \"major_w\": %.0f}"
          (json_escape name) mean_ns stddev minor_w major_w)
      kernels
  in
  let oc = open_out out_file in
  output_string oc "[\n";
  output_string oc (String.concat ",\n" records);
  output_string oc "\n]\n";
  close_out oc

(* -------------------------------------------------------- compare mode *)

(* Parses the records [run_json] writes: one
   {"kernel": ..., "mean_ns": ..., "stddev": ..., "minor_w": ...,
   "major_w": ...} object per line.  Pre-allocation-counter baselines
   lack the word fields; they parse with [minor_w = None]. *)
let parse_bench file =
  let ic = open_in file in
  let records = ref [] in
  (try
     while true do
       let line = input_line ic in
       match
         Scanf.sscanf line
           " {\"kernel\": %S, \"mean_ns\": %f, \"stddev\": %f, \
            \"minor_w\": %f"
           (fun k m s mw -> (k, (m, s, Some mw)))
       with
       | r -> records := r :: !records
       | exception Scanf.Scan_failure _ -> (
           match
             Scanf.sscanf line
               " {\"kernel\": %S, \"mean_ns\": %f, \"stddev\": %f"
               (fun k m s -> (k, (m, s, None)))
           with
           | r -> records := r :: !records
           | exception Scanf.Scan_failure _ -> ()
           | exception End_of_file -> ())
       | exception End_of_file -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !records

(* Kernels whose timings gate merges under [--strict]: the single-domain
   library hot paths and the serving fast paths — deterministic
   workloads with low run-to-run variance.  Parallel rows, the
   batching-server episodes and the full-table experiment rows stay
   advisory: their means move with runner load and domain scheduling. *)
let tier1 =
  [
    "kernel-winograd-f4-conv-fp32";
    "kernel-tapwise-int8-forward";
    "kernel-im2col-conv-fp32";
    "qconv-resnet20-s2";
    "tab1-dfg-cse";
    "intgraph-resnet20-planned";
    "deploy-forward-planned";
    "serve-wire-roundtrip";
    "router-hash";
    "wino-f4-fp32-micro";
    "wino-f4-int8-micro";
    "wino-f6-rns-crt";
    "wino-f6-rns-direct";
    (* Sparse/dense pairs gate together: the -sparse row guards the
       compressed-panel driver, the -dense row guards that the dense
       path stayed untouched. *)
    "tapwise-gemm-sparse-d30";
    "tapwise-gemm-dense-d30";
    "intgraph-resnet20-sparse-d30";
    "intgraph-resnet20-dense-d30";
  ]

(* Regression gate: prints a table of old-vs-new means, then annotates
   every kernel whose mean regressed by more than [threshold].  Without
   [--strict] all regressions are warnings and the exit code is 0 (noisy
   runners never block anything).  With [--strict] — what CI passes
   unless the PR carries the [allow-bench-regression] label — a tier-1
   regression becomes a [::error] and the process exits 1. *)
let run_compare ?(strict = false) old_file new_file =
  let threshold = 0.25 in
  (* Allocation warnings need both a relative and an absolute floor:
     tiny kernels jitter by a few words, which is not a regression. *)
  let alloc_threshold = 0.5 and alloc_floor = 1024.0 in
  let old_r = parse_bench old_file and new_r = parse_bench new_file in
  if old_r = [] then Printf.printf "compare: no records in %s (baseline regenerating?)\n" old_file;
  Printf.printf "%-40s %14s %14s %9s %12s\n" "kernel" "old ns" "new ns" "delta"
    "minor-w";
  Printf.printf "%s\n" (String.make 94 '-');
  let regressions = ref [] and alloc_regressions = ref [] in
  List.iter
    (fun (name, (new_mean, _, new_mw)) ->
      let mw_str =
        match new_mw with None -> "-" | Some w -> Printf.sprintf "%.0f" w
      in
      match List.assoc_opt name old_r with
      | None ->
          Printf.printf "%-40s %14s %14.0f %9s %12s\n" name "-" new_mean "new"
            mw_str
      | Some (old_mean, _, old_mw) ->
          let delta = (new_mean -. old_mean) /. Float.max 1e-9 old_mean in
          Printf.printf "%-40s %14.0f %14.0f %+8.1f%% %12s\n" name old_mean
            new_mean (100.0 *. delta) mw_str;
          if delta > threshold then regressions := (name, delta) :: !regressions;
          (match (old_mw, new_mw) with
          | Some ow, Some nw
            when nw -. ow > alloc_floor
                 && nw > ow *. (1.0 +. alloc_threshold) ->
              alloc_regressions := (name, ow, nw) :: !alloc_regressions
          | _ -> ()))
    new_r;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name new_r) then
        Printf.printf "%-40s %14s %14s %9s\n" name "-" "-" "gone")
    old_r;
  let blocking = ref [] in
  (match List.rev !regressions with
  | [] -> Printf.printf "\ncompare: no kernel regressed by more than %.0f%%\n" (100.0 *. threshold)
  | rs ->
      List.iter
        (fun (name, delta) ->
          if strict && List.mem name tier1 then begin
            blocking := name :: !blocking;
            Printf.printf
              "::error title=bench regression::tier-1 kernel %s mean \
               regressed %.1f%% (threshold %.0f%%); label the PR \
               allow-bench-regression to merge anyway\n"
              name (100.0 *. delta) (100.0 *. threshold)
          end
          else
            Printf.printf
              "::warning title=bench regression::%s mean regressed %.1f%% \
               (threshold %.0f%%)\n"
              name (100.0 *. delta) (100.0 *. threshold))
        rs;
      Printf.printf
        "\ncompare: %d kernel(s) above the %.0f%% threshold (%d blocking)\n"
        (List.length rs) (100.0 *. threshold)
        (List.length !blocking));
  List.iter
    (fun (name, ow, nw) ->
      Printf.printf
        "::warning title=bench allocation regression::%s minor words per \
         run grew %.0f -> %.0f (> +%.0f%% and > %.0f words)\n"
        name ow nw
        (100.0 *. alloc_threshold)
        alloc_floor)
    (List.rev !alloc_regressions);
  exit (if !blocking <> [] then 1 else 0)

let usage () =
  prerr_endline
    "usage: bench [--json] [-o|--out FILE] [--filter RE[,RE...]] | bench \
     --list [--filter RE[,RE...]] | bench --compare [--strict] OLD.json \
     NEW.json";
  exit 2

type mode = Tables | Json | List | Compare of string * string

let () =
  let strict = ref false in
  let filter = ref None in
  let rec parse mode out = function
    | [] -> (mode, out)
    | "--json" :: rest -> parse Json out rest
    | "--list" :: rest -> parse List out rest
    | "--strict" :: rest ->
        strict := true;
        parse mode out rest
    | "--compare" :: "--strict" :: old_f :: new_f :: rest ->
        strict := true;
        parse (Compare (old_f, new_f)) out rest
    | "--compare" :: old_f :: new_f :: rest -> parse (Compare (old_f, new_f)) out rest
    | [ "--compare" ] | [ "--compare"; _ ] ->
        prerr_endline "bench: --compare requires OLD.json and NEW.json";
        usage ()
    | ("-o" | "--out") :: f :: rest -> parse mode f rest
    | [ ("-o" | "--out") ] ->
        prerr_endline "bench: -o/--out requires a FILE argument";
        usage ()
    | "--filter" :: re :: rest ->
        filter := Some re;
        parse mode out rest
    | [ "--filter" ] ->
        prerr_endline "bench: --filter requires a REGEX argument";
        usage ()
    | arg :: _ ->
        Printf.eprintf "bench: unknown argument %S\n" arg;
        usage ()
  in
  let mode, out_file =
    parse Tables "BENCH_ci.json" (List.tl (Array.to_list Sys.argv))
  in
  (* Unanchored Str search (Emacs-style syntax: alternation is [\|],
     groups are [\(...\)]), so `--filter wino-f4` or `--filter
     '-micro$'` select the rows a developer expects.  A comma splits
     the argument into independent regexes, any of which selects a row:
     `--filter '-micro$,-sparse-,-dense-'` picks both GEMM families
     without wrestling Str's escaped alternation. *)
  let selected =
    match !filter with
    | None -> kernels
    | Some re ->
        let rexes =
          List.filter_map
            (fun s -> if s = "" then None else Some (Str.regexp s))
            (String.split_on_char ',' re)
        in
        if rexes = [] then begin
          Printf.eprintf "bench: --filter %S has no non-empty regexes\n" re;
          exit 2
        end;
        let matches name rex =
          match Str.search_forward rex name 0 with
          | _ -> true
          | exception Not_found -> false
        in
        let sel =
          List.filter
            (fun (name, _) -> List.exists (matches name) rexes)
            kernels
        in
        if sel = [] then begin
          Printf.eprintf "bench: --filter %S matches no kernels\n" re;
          exit 2
        end;
        sel
  in
  match mode with
  | Compare (old_f, new_f) -> run_compare ~strict:!strict old_f new_f
  | Json -> run_json selected out_file
  | List -> List.iter (fun (name, _) -> print_endline name) selected
  | Tables ->
      if !filter = None then print_all_tables ();
      print_endline "==== Bechamel micro-benchmarks (one per table/figure) ====";
      benchmark selected
