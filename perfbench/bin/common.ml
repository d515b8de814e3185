(* Shared helpers of the benchmark executable. *)

module Tensor = Twq.Tensor
module Itensor = Twq.Itensor
module Rng = Twq.Rng
module Int_graph = Twq.Nn.Int_graph
module Plan = Twq_nn.Plan
module Registry = Twq.Serve.Registry
module Model = Twq.Serve.Model
module Server = Twq.Serve.Server
module Router = Twq.Serve.Router
module Wire = Twq.Serve.Wire
module Shard_client = Twq.Serve.Shard_client
module Microkernel = Twq.Winograd.Microkernel
module Tapwise = Twq.Quant.Tapwise
module Spans = Perfbench.Spans
module Pstats = Perfbench.Pstats
module Json = Perfbench.Json

let now = Twq_util.Mclock.now

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let registry_ok what = function
  | Ok v -> v
  | Error e -> die "%s: %s" what (Registry.error_to_string e)

let client_ok what = function
  | Ok v -> v
  | Error e -> die "%s: %s" what (Shard_client.error_to_string e)

(* The output gate compares IEEE bit patterns: planned, served and
   reference logits must be the same floats, not merely close. *)
let same_bits (a : float array) (b : float array) =
  Array.length a = Array.length b
  &&
  let rec go i =
    i = Array.length a
    || Int64.equal (Int64.bits_of_float a.(i)) (Int64.bits_of_float b.(i))
       && go (i + 1)
  in
  go 0

(* Row [r] of a [n; k] tensor, or of a [n; ...] input batch. *)
let row (t : Tensor.t) r =
  let n = Tensor.dim t 0 in
  let w = Tensor.numel t / n in
  Array.sub t.Tensor.data (r * w) w

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Peak resident set (VmHWM) of this process, in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> die "VmHWM missing from /proc/self/status"
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
      in
      go ())

let rec remove_tree path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then (
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755)
