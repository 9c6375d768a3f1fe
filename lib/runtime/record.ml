(* Key/value records: the store's payloads and the daemon's request
   bodies.  Not [Marshal]: a crafted store file must decode to an
   [Error], never to an arbitrary value. *)

type t = (string * string) list

let encode fields =
  let b = Buffer.create 128 in
  List.iter
    (fun (k, v) ->
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b (String.escaped v);
      Buffer.add_char b '\n')
    fields;
  Buffer.contents b

(* [String.escaped] leaves a backslash wherever it changed anything, so
   a value without one is already its own text *)
let unescape v =
  if String.contains v '\\' then
    match Scanf.unescaped v with v -> Some v | exception _ -> None
  else Some v

let decode s =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | "" :: rest -> go acc rest
    | line :: rest -> (
      match String.index_opt line '=' with
      | None -> Error line
      | Some i -> (
        let v = String.sub line (i + 1) (String.length line - i - 1) in
        match unescape v with
        | None -> Error line
        | Some v -> go ((String.sub line 0 i, v) :: acc) rest))
  in
  go [] (String.split_on_char '\n' s)

let find key r = List.assoc_opt key r
let all key r =
  List.filter_map (fun (k, v) -> if String.equal k key then Some v else None) r
let int key r = Option.bind (find key r) int_of_string_opt
