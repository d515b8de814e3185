(* The probe: a 64x64 integer matrix product, repeated.  Its working
   set (two 32 KiB arrays) sits in the caches, so it tracks how fast this
   core runs right now — frequency, a busy sibling thread, memory traffic
   from neighbours — and not what the program left in memory. *)
let n = 64
let a = Array.init (n * n) (fun i -> ((i * 7919) mod 255) - 127)
let c = Array.make (n * n) 0
let rounds = 32

let kernel () =
  for _ = 1 to rounds do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let acc = ref 0 in
        for k = 0 to n - 1 do
          acc :=
            !acc
            + (Array.unsafe_get a ((i * n) + k) * Array.unsafe_get a ((k * n) + j))
        done;
        Array.unsafe_set c ((i * n) + j) (!acc land 0xffff)
      done
    done
  done

let probe () =
  let t0 = Twq_util.Mclock.now () in
  kernel ();
  Twq_util.Mclock.now () -. t0

let probes k = List.init k (fun _ -> probe ())
let reference_s = 0.0140

let slowdown = function
  | [] -> invalid_arg "Hostspeed.slowdown: no probes"
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l) /. reference_s
