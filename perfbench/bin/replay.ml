(* Per-stage replay: the model's own tap-wise layers, one per stage shape,
   timed alone at the offline batch size — first the whole tap-wise
   forward, then only its per-tap GEMMs — and the wire codec on the
   workload's frames. *)

open Common

(* The tap-wise layers of an integer graph, in graph order, read back
   from its serialized form with the library's own layer reader. *)
let tapwise_layers graph =
  let text = Int_graph.to_string graph in
  let key = "tapwise-layer v1" in
  let klen = String.length key and len = String.length text in
  let rec scan from acc =
    let rec matches i k = k = klen || (text.[i + k] = key.[k] && matches i (k + 1)) in
    let rec find i =
      if i + klen > len then None else if matches i 0 then Some i else find (i + 1)
    in
    match find from with
    | None -> List.rev acc
    | Some i ->
        let r = Twq.Serialize.reader_of_string (String.sub text i (len - i)) in
        Twq.Serialize.expect r "tapwise-layer";
        Twq.Serialize.expect r "v1";
        let l = Twq.Serialize.read_layer_body r in
        scan (i + Twq.Serialize.reader_pos r) (l :: acc)
  in
  scan 0 []

type stage = {
  index : int;  (** 1-based, by channel count *)
  channels : int;
  spatial : int;
  layers : int;  (** square tap-wise layers of this shape in the model *)
  tapwise_ms : float;  (** median Tapwise.forward_int_into *)
  gemm_ms : float;  (** median of all taps' GEMMs *)
  gemm_gmacs : float;  (** executed MACs per second, in 1e9 *)
  sparse_taps : int;
  taps : int;
}

(* Median of repeated timings of [f], repeated until [budget] seconds
   have passed and at least [min_reps] times. *)
let median_time ?(min_reps = 5) ~budget ~prepare f =
  let t_start = now () in
  let rec go acc reps =
    if reps >= min_reps && now () -. t_start >= budget then acc
    else (
      prepare ();
      let t0 = now () in
      f ();
      go ((now () -. t0) :: acc) (reps + 1))
  in
  Pstats.median (go [] 0)

let random_int8 rng n = Array.init n (fun _ -> Rng.int rng 255 - 127)

let replay_stage ~rng ~res ~index ~layers (l : Tapwise.layer) spans =
  let wq = l.Tapwise.wq in
  let cout = Itensor.dim wq 0 and cin = Itensor.dim wq 1 and t = Itensor.dim wq 2 in
  let m = t - 2 (* F(m, 3): a t×t input tile yields an m×m output tile *) in
  let spatial = res lsr (index - 1) in
  let packed = Tapwise.pack l in
  let x =
    Itensor.of_array
      [| Artifact.batch; cin; spatial; spatial |]
      (random_int8 rng (Artifact.batch * cin * spatial * spatial))
  in
  let out = Itensor.zeros [| Artifact.batch; cout; spatial; spatial |] in
  let tapwise_s =
    Spans.with_span spans (Printf.sprintf "quant.tapwise.stage%d" index) (fun _ ->
        median_time ~budget:0.3 ~prepare:ignore (fun () ->
            Tapwise.forward_int_into packed x ~out))
  in
  (* The per-tap GEMMs of the same layer on packed panels laid out as
     the tap-wise forward lays them out: one A panel of input tiles and
     one B panel of weights per tap, compressed where the pack decided. *)
  let { Microkernel.mr; nr; kc } = Microkernel.config () in
  let tiles_side = (spatial + m - 1) / m in
  let rows = Artifact.batch * tiles_side * tiles_side in
  let rows_p = Microkernel.round_up rows mr
  and cols_p = Microkernel.round_up cout nr in
  let taps = t * t in
  let threshold = Microkernel.sparse_threshold () in
  let densities = Tapwise.tap_densities packed in
  let a_panels =
    Array.init taps (fun _ ->
        let vp = Array.make (rows_p * cin) 0 in
        for r = 0 to rows - 1 do
          let ib = r / mr and lane = r mod mr in
          for k = 0 to cin - 1 do
            vp.((ib * cin * mr) + (k * mr) + lane) <- Rng.int rng 255 - 127
          done
        done;
        vp)
  in
  let b_panels =
    Array.init taps (fun tap ->
        let i = tap / t and j = tap mod t in
        let up = Array.make (cols_p * cin) 0 in
        for co = 0 to cout - 1 do
          let jb = co / nr and lane = co mod nr in
          for ci = 0 to cin - 1 do
            up.((jb * cin * nr) + (ci * nr) + lane) <- Itensor.get4 wq co ci i j
          done
        done;
        if densities.(tap) < threshold then
          `Sparse (Microkernel.compress_panel ~nr ~k:cin ~cols:cols_p up ~uo:0)
        else `Dense up)
  in
  let c_panels = Array.init taps (fun _ -> Array.make (rows_p * cols_p) 0) in
  let sparse_taps, macs =
    Array.fold_left
      (fun (s, macs) b ->
        match b with
        | `Sparse sp -> (s + 1, macs + (rows * Microkernel.sparse_nnz sp))
        | `Dense _ -> (s, macs + (rows * cin * cout)))
      (0, 0) b_panels
  in
  let gemm_s =
    Spans.with_span spans (Printf.sprintf "winograd.gemm.stage%d" index) (fun _ ->
        median_time ~budget:0.3
          ~prepare:(fun () -> Array.iter (fun c -> Array.fill c 0 (Array.length c) 0) c_panels)
          (fun () ->
            for tap = 0 to taps - 1 do
              let vp = a_panels.(tap) and c = c_panels.(tap) in
              match b_panels.(tap) with
              | `Sparse sp ->
                  Microkernel.gemm_i32_sparse ~mr ~rows_p ~sp ~vp ~vo:0 ~c ~co:0
                    ~cstride:cols_p
              | `Dense up ->
                  Microkernel.gemm_i32 ~mr ~nr ~kc ~rows_p ~cols_p ~k:cin ~vp ~vo:0
                    ~up ~uo:0 ~c ~co:0 ~cstride:cols_p
            done))
  in
  {
    index;
    channels = cout;
    spatial;
    layers;
    tapwise_ms = tapwise_s *. 1e3;
    gemm_ms = gemm_s *. 1e3;
    gemm_gmacs = float_of_int macs /. gemm_s /. 1e9;
    sparse_taps;
    taps;
  }

(* One stage per distinct channel count among the square (cin = cout)
   tap-wise layers; ResNet-20 halves the resolution at each stage. *)
let stages ~seed ~res graph spans =
  let square =
    List.filter
      (fun l -> Itensor.dim l.Tapwise.wq 0 = Itensor.dim l.Tapwise.wq 1)
      (tapwise_layers graph)
  in
  let channels =
    List.sort_uniq compare (List.map (fun l -> Itensor.dim l.Tapwise.wq 0) square)
  in
  let rng = Rng.create (seed lxor 0x5eed) in
  List.mapi
    (fun i c ->
      let same = List.filter (fun l -> Itensor.dim l.Tapwise.wq 0 = c) square in
      replay_stage ~rng ~res ~index:(i + 1) ~layers:(List.length same)
        (List.hd same) spans)
    channels

(* Encode and decode cost of one request frame plus its reply frame, in
   microseconds per pair. *)
let wire_codec ~(input : Tensor.t) ~(logits : float array) spans =
  let req =
    Wire.Infer
      { key = "req-0"; deadline = None; dims = input.Tensor.shape; data = input.Tensor.data }
  and rep =
    Wire.Infer_reply (Wire.Logits { queue_wait = 1e-3; service = 2e-3; data = logits })
  in
  let frames = [ Wire.encode ~id:1L req; Wire.encode ~id:1L rep ] in
  let per_call = 200 in
  let encode_s =
    Spans.with_span spans "serve.wire.encode" (fun _ ->
        median_time ~budget:0.2 ~prepare:ignore (fun () ->
            for _ = 1 to per_call do
              ignore (Wire.encode ~id:1L req);
              ignore (Wire.encode ~id:1L rep)
            done))
  in
  let decode_s =
    Spans.with_span spans "serve.wire.decode" (fun _ ->
        median_time ~budget:0.2 ~prepare:ignore (fun () ->
            for _ = 1 to per_call do
              List.iter
                (fun f ->
                  match Wire.decode_string f with
                  | Ok _ -> ()
                  | Error e -> die "wire decode: %s" (Wire.error_to_string e))
                frames
            done))
  in
  (encode_s /. float_of_int per_call *. 1e6, decode_s /. float_of_int per_call *. 1e6)
