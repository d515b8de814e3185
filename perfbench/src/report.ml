let valid_name s =
  let n = String.length s in
  let alnum = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
    | _ -> false
  in
  n >= 1 && n <= 64 && alnum s.[0]
  && String.for_all (fun c -> alnum c || c = '_' || c = '.' || c = '-') s

type metric = { name : string; value : float; unit : string }

let result_line ~correct ~attempted ~failed metrics =
  if attempted < 1 then invalid_arg "Report.result_line: attempted < 1";
  List.iteri
    (fun i m ->
      if not (valid_name m.name) then
        invalid_arg ("Report.result_line: invalid metric name " ^ m.name);
      if not (Float.is_finite m.value) then
        invalid_arg ("Report.result_line: non-finite value for " ^ m.name);
      if List.exists (fun o -> o.name = m.name) (List.filteri (fun j _ -> j < i) metrics)
      then invalid_arg ("Report.result_line: repeated metric " ^ m.name))
    metrics;
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  ( m.name,
                    Json.Obj
                      [ ("value", Json.Num m.value); ("unit", Json.Str m.unit) ]
                  ))
                metrics) );
       ])
