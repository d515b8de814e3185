(* Model export (input generation, untimed) and the offline set-up path:
   a published artifact on disk to the first correct answer. *)

open Common

type spec = {
  width_div : int;  (** ResNet-20 channel divisor *)
  res : int;  (** input height and width *)
  density : float option;  (** Winograd-domain density after pruning *)
}

let batch = 8
let name = "bench"

(* Model weights stay fixed across seeds; only inputs and schedules vary.
   Seed 7 and the Gaussian calibration batch are what `twq publish`
   uses, so serve-fleet serves exactly that command's default model. *)
let weight_seed = 7

type exported = {
  graph : Int_graph.t;
  quantize_s : float;
  prune_s : float option;
  artifact_bytes : int;
}

let input_dims spec = [| 3; spec.res; spec.res |]

let export spec ~dir spans =
  Spans.with_span spans "export" @@ fun parent ->
  let rng = Rng.create weight_seed in
  let g =
    Twq.Nn.Passes.fold_bn
      (Twq.Nn.Gmodels.resnet20 ~rng ~classes:10 ~width_div:spec.width_div ())
  in
  let cal =
    Tensor.rand_gaussian rng [| 2; 3; spec.res; spec.res |] ~mu:0.0 ~sigma:1.0
  in
  let graph, quantize_s =
    Spans.with_span spans ~parent "nn.quantize" (fun _ ->
        timed (fun () -> Int_graph.quantize g ~calibration:cal ()))
  in
  let graph, prune_s =
    match spec.density with
    | None -> (graph, None)
    | Some density ->
        let g, s =
          Spans.with_span spans ~parent "nn.prune" (fun _ ->
              timed (fun () -> Int_graph.prune graph ~density))
        in
        (g, Some s)
  in
  Spans.with_span spans ~parent "serve.registry.publish" (fun _ ->
      let reg = registry_ok "open registry" (Registry.open_dir dir) in
      ignore
        (registry_ok "publish"
           (Registry.publish reg ~name ~version:1 ~input_dims:(input_dims spec)
              (Model.Graph graph))));
  let artifact_bytes =
    Array.fold_left
      (fun acc f ->
        if Filename.check_suffix f ".twqm" then
          acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
        else acc)
      0 (Sys.readdir dir)
  in
  { graph; quantize_s; prune_s; artifact_bytes }

(* Reference logits from the node-by-node interpreter.  With
   [dense_oracle] the interpreter's tap-wise layers are packed with the
   sparse path disabled, so the oracle shares no code with the
   compressed-panel GEMM it checks. *)
let reference ?(dense_oracle = false) graph x =
  if not dense_oracle then Int_graph.run_ref graph x
  else
    let saved = Microkernel.sparse_threshold () in
    Microkernel.set_sparse_threshold 0.0;
    Fun.protect
      ~finally:(fun () -> Microkernel.set_sparse_threshold saved)
      (fun () -> Int_graph.run_ref graph x)

let load_graph ~dir =
  let reg = registry_ok "open registry" (Registry.open_dir dir) in
  let entry = registry_ok "resolve" (Registry.resolve reg name) in
  match entry.Registry.model with
  | Model.Graph g -> g
  | Model.Net _ -> die "artifact %s is not an integer graph" name

let plan_cache g =
  match Int_graph.plans g with
  | Some c -> c
  | None -> die "artifact %s has no plan cache" name

type timings = {
  total_s : float;
  load_s : float;  (** registry open + resolve *)
  compile_s : float;  (** Plan.plan on first sight of the batch shape *)
  warm_s : float;  (** first Plan.execute *)
}

type setup = { timings : timings; answer_ok : bool; plan : Plan.t; cache : Plan.cache }

(* One offline set-up: open the registry, compile the batch plan, run the
   warm batch and check it against its reference. *)
let setup_offline ~dir ~warm ~warm_ref spans =
  Gc.full_major ();
  Spans.with_span spans "setup" @@ fun parent ->
  let t0 = now () in
  let g =
    Spans.with_span spans ~parent "serve.registry.load" (fun _ -> load_graph ~dir)
  in
  let t1 = now () in
  let cache = plan_cache g in
  let plan =
    Spans.with_span spans ~parent "nn.plan.compile" (fun _ ->
        Plan.plan cache ~input_shape:(Array.copy warm.Tensor.shape))
  in
  let t2 = now () in
  let y =
    Spans.with_span spans ~parent "nn.plan.warm" (fun _ -> Plan.execute plan warm)
  in
  let t3 = now () in
  let answer_ok = same_bits y.Tensor.data warm_ref.Tensor.data in
  let t4 = now () in
  {
    timings =
      { total_s = t4 -. t0; load_s = t1 -. t0; compile_s = t2 -. t1; warm_s = t3 -. t2 };
    answer_ok;
    plan;
    cache;
  }
