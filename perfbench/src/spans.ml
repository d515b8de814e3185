type span = {
  id : int;
  parent : int;
  name : string;
  lane : int;
  req : int;
  t0 : float;
  t1 : float;
}

let no_span = -1

type t = {
  on : bool;
  mutex : Mutex.t;
  mutable next : int;
  mutable acc : span list;
}

let create ~enabled = { on = enabled; mutex = Mutex.create (); next = 0; acc = [] }
let enabled r = r.on

let fresh_id r =
  Mutex.lock r.mutex;
  let id = r.next in
  r.next <- id + 1;
  Mutex.unlock r.mutex;
  id

let push r s =
  Mutex.lock r.mutex;
  r.acc <- s :: r.acc;
  Mutex.unlock r.mutex

let with_span r ?(parent = no_span) name f =
  if not r.on then f no_span
  else
    let id = fresh_id r in
    let t0 = Twq_util.Mclock.now () in
    Fun.protect
      ~finally:(fun () ->
        push r
          { id; parent; name; lane = 0; req = no_span; t0; t1 = Twq_util.Mclock.now () })
      (fun () -> f id)

let record r ?(parent = no_span) ?(lane = 0) ?(req = no_span) name ~t0 ~t1 =
  if not r.on then no_span
  else
    let id = fresh_id r in
    push r { id; parent; name; lane; req; t0; t1 };
    id

let spans r =
  Mutex.lock r.mutex;
  let l = r.acc in
  Mutex.unlock r.mutex;
  List.sort (fun a b -> compare a.id b.id) l

(* Length of the union of intervals clipped to [lo, hi]. *)
let union_length ivs ~lo ~hi =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      ivs
  in
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let self_time all s =
  let children =
    List.filter_map
      (fun c -> if c.parent = s.id then Some (c.t0, c.t1) else None)
      all
  in
  s.t1 -. s.t0 -. union_length children ~lo:s.t0 ~hi:s.t1

let self_time_by_name all =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let st = self_time all s in
      match Hashtbl.find_opt tbl s.name with
      | Some v -> Hashtbl.replace tbl s.name (v +. st)
      | None ->
          order := s.name :: !order;
          Hashtbl.add tbl s.name st)
    all;
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order

let to_chrome_json ?(lanes = []) all =
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity all in
  let us t = (t -. origin) *. 1e6 in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str (List.hd (String.split_on_char '.' s.name)));
        ("ph", Json.Str "X");
        ("ts", Json.Num (us s.t0));
        ("dur", Json.Num ((s.t1 -. s.t0) *. 1e6));
        ("pid", Json.Num 1.);
        ("tid", Json.Num (float_of_int s.lane));
        ( "args",
          Json.Obj
            [
              ("id", Json.Num (float_of_int s.id));
              ("parent", Json.Num (float_of_int s.parent));
              ("req", Json.Num (float_of_int s.req));
            ] );
      ]
  in
  let lane_name (tid, name) =
    Json.Obj
      [
        ("name", Json.Str "thread_name");
        ("ph", Json.Str "M");
        ("pid", Json.Num 1.);
        ("tid", Json.Num (float_of_int tid));
        ("args", Json.Obj [ ("name", Json.Str name) ]);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ( "traceEvents",
           Json.Arr (List.map event all @ List.map lane_name lanes) );
       ])
