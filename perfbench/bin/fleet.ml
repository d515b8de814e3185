(* The serving path, driven from outside: a shard daemon and a router on
   Unix-domain sockets inside this process, and clients speaking the wire
   protocol to them. *)

open Common

type t = {
  daemon : Server.daemon;
  router : Router.t;
  shard_sock : string;
  router_sock : string;
}

let stop f =
  Router.stop f.router;
  Server.stop_daemon f.daemon

type setup = {
  fleet : t;
  total_s : float;
  answer_ok : bool;
}

(* One fleet set-up: registry load, daemon start (which compiles the plan
   of every batch size the batcher can form), router start, and the first
   answer through the router, checked against its reference. *)
let setup ~dir ~run_dir ~seed ~warm ~warm_ref spans =
  Gc.full_major ();
  Spans.with_span spans "setup" @@ fun parent ->
  let shard_sock = Filename.concat run_dir "shard.sock"
  and router_sock = Filename.concat run_dir "router.sock" in
  let t0 = now () in
  let reg =
    Spans.with_span spans ~parent "serve.registry.load" (fun _ ->
        let reg = registry_ok "open registry" (Registry.open_dir dir) in
        ignore (registry_ok "resolve" (Registry.resolve reg Artifact.name));
        reg)
  in
  let daemon =
    Spans.with_span spans ~parent "serve.server.listen" (fun _ ->
        match Server.listen ~registry:reg ~path:shard_sock () with
        | Ok d -> d
        | Error e -> die "shard daemon: %s" e)
  in
  let router =
    Spans.with_span spans ~parent "serve.router.start" (fun _ ->
        match
          Router.start
            ~config:{ Router.default_config with seed }
            ~shards:[ shard_sock ] ~path:router_sock ()
        with
        | Ok r -> r
        | Error e -> die "router: %s" e)
  in
  let answer_ok =
    Spans.with_span spans ~parent "serve.first_answer" (fun _ ->
        let c = client_ok "connect router" (Shard_client.connect router_sock) in
        Fun.protect
          ~finally:(fun () -> Shard_client.close c)
          (fun () ->
            match Shard_client.infer ~key:"warm" c warm with
            | Ok { Shard_client.outcome = Wire.Logits { data; _ }; _ } ->
                same_bits data warm_ref
            | Ok _ | Error _ -> false))
  in
  {
    fleet = { daemon; router; shard_sock; router_sock };
    total_s = now () -. t0;
    answer_ok;
  }

type status =
  | Answered of { logits : float array; queue_wait : float; service : float }
  | Rejected of string  (** a typed non-logits outcome *)
  | Lost of string  (** transport failure *)

type reply = { due : float; sent : float; fin : float; status : status }

let outcome_label = function
  | Wire.Logits _ -> "logits"
  | Wire.Overloaded -> "overloaded"
  | Wire.Expired -> "expired"
  | Wire.Invalid s -> "invalid: " ^ s
  | Wire.Closed -> "closed"
  | Wire.Failed s -> "failed: " ^ s
  | Wire.No_model -> "no model"
  | Wire.Unavailable s -> "unavailable: " ^ s

let exchange conn ~connect ~key x =
  (match !conn with Error _ -> conn := connect () | Ok _ -> ());
  match !conn with
  | Error e -> Lost (Shard_client.error_to_string e)
  | Ok c -> (
      match Shard_client.infer ~key c x with
      | Ok { Shard_client.outcome = Wire.Logits { data; queue_wait; service }; _ }
        ->
          Answered { logits = data; queue_wait; service }
      | Ok { Shard_client.outcome; _ } -> Rejected (outcome_label outcome)
      | Error e ->
          Shard_client.close c;
          conn := Error e;
          Lost (Shard_client.error_to_string e))

(* Open loop: request [i] is due at [offsets.(i)] seconds after the start
   and is sent by whichever of [connections] sender threads claims it
   first; latency is charged from the due time, so a stalled fleet cannot
   hide by slowing the senders down.  Request [i]'s span goes to
   [spans_for i].  Returns the replies and the phase's wall time. *)
let open_loop ~path ~connections ~inputs ~offsets ~spans_for =
  let n = Array.length inputs in
  let replies = Array.make n None in
  let next = Atomic.make 0 in
  let connect () = Shard_client.connect path in
  let t_base = now () +. 0.01 in
  let sender lane () =
    let conn = ref (connect ()) in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let due = t_base +. offsets.(i) in
        let wait = due -. now () in
        if wait > 0. then Thread.delay wait;
        let sent = now () in
        let status =
          exchange conn ~connect ~key:(Printf.sprintf "req-%d" i) inputs.(i)
        in
        let fin = now () in
        ignore
          (Spans.record (spans_for i) ~lane ~req:i "serve.request" ~t0:sent ~t1:fin);
        replies.(i) <- Some { due; sent; fin; status };
        loop ()
      end
    in
    loop ();
    match !conn with Ok c -> Shard_client.close c | Error _ -> ()
  in
  List.iter Thread.join
    (List.init connections (fun lane -> Thread.create (sender (lane + 1)) ()));
  let replies = Array.map Option.get replies in
  let last = Array.fold_left (fun m r -> Float.max m r.fin) t_base replies in
  (replies, last -. t_base)

(* Closed loop: each request is sent when the previous reply arrives.
   With several [targets] (socket path, span name), one connection per
   target, every input goes to each target in turn, so that the paths
   are compared over the same moments of the machine.  Returns one reply
   array per target.  Used for unloaded round-trip probes. *)
let closed_loop ~targets ~inputs spans =
  let conns =
    List.map
      (fun (path, name) ->
        let connect () = Shard_client.connect path in
        (connect, ref (connect ()), name, ref []))
      targets
  in
  Array.iteri
    (fun i x ->
      List.iter
        (fun (connect, conn, name, acc) ->
          let sent = now () in
          let status = exchange conn ~connect ~key:(Printf.sprintf "probe-%d" i) x in
          let fin = now () in
          ignore (Spans.record spans ~req:i name ~t0:sent ~t1:fin);
          acc := { due = sent; sent; fin; status } :: !acc)
        conns)
    inputs;
  List.map
    (fun (_, conn, _, acc) ->
      (match !conn with Ok c -> Shard_client.close c | Error _ -> ());
      Array.of_list (List.rev !acc))
    conns

(* Batch-size sum and count from the daemon's stats snapshot. *)
let batch_sizes f =
  match Json.parse (Server.daemon_stats_json f.daemon) with
  | Error e -> die "daemon stats: %s" e
  | Ok j -> (
      let field k =
        Option.bind (Json.path [ "server"; "histograms"; "batch_size"; k ] j)
          Json.to_float
      in
      match (field "count", field "mean") with
      | Some count, Some mean -> (count *. mean, count)
      | _ -> die "daemon stats: no batch_size histogram")

let router_counter f name =
  match List.assoc_opt name (Router.counters f.router) with
  | Some v -> v
  | None -> die "router has no counter %s" name
