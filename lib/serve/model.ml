(* A servable artifact: either a linear Deploy net or a quantized
   Int_graph; a net runs as the integer graph it holds.  Both take a
   float NCHW batch (quantized internally at the recorded input scale)
   and return float logits [n; classes]; every per-sample computation is
   independent of the batch dimension, which is what lets the dynamic
   batcher promise bit-identical results. *)

module Tensor = Twq_tensor.Tensor
module Deploy = Twq_nn.Deploy
module Int_graph = Twq_nn.Int_graph

type t = Net of Deploy.t | Graph of Int_graph.t

let kind = function Net _ -> "net" | Graph _ -> "graph"

let to_string = function
  | Net d -> Deploy.to_string d
  | Graph g -> Int_graph.to_string g

(* Dispatch on the payload's own magic line; both parsers funnel their
   typed reader errors through Failure. *)
let of_string s =
  let magic =
    match String.index_opt s ' ' with
    | Some i -> String.sub s 0 i
    | None -> s
  in
  match magic with
  | "twq-int8-net" -> (
      match Deploy.of_string s with
      | d -> Ok (Net d)
      | exception Failure msg -> Error msg)
  | "twq-int8-graph" -> (
      match Int_graph.of_string s with
      | g -> Ok (Graph g)
      | exception Failure msg -> Error msg)
  | m -> Error (Printf.sprintf "unknown model magic %S" m)

let graph = function Net d -> Deploy.graph d | Graph g -> g

let run_batch t x = Int_graph.run (graph t) x

(* Compile the execution plans for the batch shapes the server will
   actually dispatch, so no request ever pays for planning.  Plan
   compilation is pure scheduling (the Winograd weights were already
   packed when the artifact was loaded), so warming even a dozen batch
   sizes is milliseconds. *)
let warm t ~input_dims ~batch_sizes =
  match Int_graph.plans (graph t) with
  | None -> ()
  | Some c ->
      List.iter
        (fun n ->
          if n > 0 then
            ignore
              (Twq_nn.Plan.plan c
                 ~input_shape:
                   [| n; input_dims.(0); input_dims.(1); input_dims.(2) |]))
        batch_sizes
