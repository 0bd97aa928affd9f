(* Guard on the library surface: every [val] of a [lib/**/*.mli] must
   be named by some program file (under lib, bin, bench, perfbench or
   examples) outside its own module, or be listed with a reason in
   surface_allow.txt.  A value only the tests name fails, and so does an
   allowlist entry that has gone stale (its value is now used elsewhere,
   or no longer declared).

   Matching is on bare identifiers with comments and string literals
   blanked, so a value that really is used never fails; a name shared
   with another module's value can hide a dead one, which is the
   price of needing no type information. *)

let roots = [ "lib"; "bin"; "bench"; "perfbench"; "examples" ]

(* Source text with comments (nested), string and quoted-string
   literals and character literals blanked, so only code remains. *)
let strip src =
  let n = String.length src in
  let b = Buffer.create n in
  let is_ident c =
    match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false
  in
  (* index just past the string literal opening at [i] *)
  let rec skip_string i =
    if i >= n then n
    else match src.[i] with '\\' -> skip_string (i + 2) | '"' -> i + 1 | _ -> skip_string (i + 1)
  in
  (* index just past a {id|...|id} literal opening at [i], if one does *)
  let quoted i =
    let j = ref (i + 1) in
    while !j < n && (match src.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do
      incr j
    done;
    if !j < n && src.[!j] = '|' then
      let close = "|" ^ String.sub src (i + 1) (!j - i - 1) ^ "}" in
      let m = String.length close in
      let rec find k =
        if k + m > n then Some n else if String.sub src k m = close then Some (k + m) else find (k + 1)
      in
      find (!j + 1)
    else None
  in
  let rec code i =
    if i < n then
      match src.[i] with
      | '(' when i + 1 < n && src.[i + 1] = '*' -> comment 1 (i + 2)
      | '"' ->
          Buffer.add_char b ' ';
          code (skip_string (i + 1))
      | '{' -> (
          match quoted i with
          | Some j ->
              Buffer.add_char b ' ';
              code j
          | None ->
              Buffer.add_char b '{';
              code (i + 1))
      | '\'' when i = 0 || not (is_ident src.[i - 1]) ->
          (* a character literal, or the quote of a type variable *)
          let close =
            if i + 2 < n && src.[i + 1] <> '\\' && src.[i + 2] = '\'' then Some (i + 3)
            else if i + 1 < n && src.[i + 1] = '\\' then
              Option.map (fun k -> k + 1) (String.index_from_opt src (i + 2) '\'')
            else None
          in
          Buffer.add_char b ' ';
          code (Option.value close ~default:(i + 1))
      | c ->
          Buffer.add_char b c;
          code (i + 1)
  and comment depth i =
    if i >= n then ()
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then comment (depth + 1) (i + 2)
    else if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then
      if depth = 1 then begin
        Buffer.add_char b ' ';
        code (i + 2)
      end
      else comment (depth - 1) (i + 2)
    else if src.[i] = '"' then comment depth (skip_string (i + 1))
    else comment depth (i + 1)
  in
  code 0;
  Buffer.contents b

let identifiers code =
  let n = String.length code in
  let start_char c = match c with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false in
  let body_char c =
    match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false
  in
  let rec go i acc =
    if i >= n then List.rev acc
    else if start_char code.[i] && (i = 0 || not (body_char code.[i - 1])) then begin
      let j = ref i in
      while !j < n && body_char code.[!j] do
        incr j
      done;
      go !j (String.sub code i (!j - i) :: acc)
    end
    else go (i + 1) acc
  in
  go 0 []

(* The .ml and .mli files under [dir], as paths relative to the
   repository root (the test runs one level below it). *)
let rec sources dir =
  Sys.readdir (Filename.concat ".." dir)
  |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if name <> "" && name.[0] = '.' then []
         else if Sys.is_directory (Filename.concat ".." path) then sources path
         else if Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli" then [ path ]
         else [])

let read path = In_channel.with_open_bin (Filename.concat ".." path) In_channel.input_all

(* [val] names declared by an interface, in order. *)
let declared ids =
  let rec go acc = function
    | "val" :: name :: rest when name.[0] = '_' || Char.lowercase_ascii name.[0] = name.[0] ->
        go (name :: acc) rest
    | _ :: rest -> go acc rest
    | [] -> List.rev acc
  in
  go [] ids

let module_of path = Filename.remove_extension path

let () =
  let t0 = Sys.time () in
  let files = List.concat_map sources roots in
  let idents = Hashtbl.create 4096 in
  (* identifier -> modules (path stems) whose files name it *)
  List.iter
    (fun path ->
      let m = module_of path in
      List.iter
        (fun id ->
          let ms = Option.value (Hashtbl.find_opt idents id) ~default:[] in
          if not (List.mem m ms) then Hashtbl.replace idents id (m :: ms))
        (identifiers (strip (read path))))
    files;
  let used_outside m v =
    List.exists (fun m' -> m' <> m) (Option.value (Hashtbl.find_opt idents v) ~default:[])
  in
  let interfaces =
    List.filter
      (fun p -> String.length p > 4 && String.sub p 0 4 = "lib/" && Filename.check_suffix p ".mli")
      files
  in
  let vals =
    List.concat_map
      (fun p -> List.map (fun v -> (p, v)) (declared (identifiers (strip (read p)))))
      interfaces
  in
  let allow =
    String.split_on_char '\n' (In_channel.with_open_bin "surface_allow.txt" In_channel.input_all)
    |> List.filter_map (fun line ->
           let line = String.trim line in
           if line = "" || line.[0] = '#' then None
           else
             match String.split_on_char ' ' line with
             | path :: v :: (_ :: _ as reason) when String.trim (String.concat " " reason) <> "" ->
                 Some (path, v)
             | _ -> failwith ("surface_allow.txt: want \"path value reason\": " ^ line))
  in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (p, v) ->
      if (not (used_outside (module_of p) v)) && not (List.mem (p, v) allow) then
        fail "%s: val %s is named by no program file outside its module (tests do not count)" p v)
    vals;
  List.iter
    (fun (p, v) ->
      if not (List.mem (p, v) vals) then fail "surface_allow.txt: %s no longer declares %s" p v
      else if used_outside (module_of p) v then
        fail "surface_allow.txt: %s %s is now used outside its module; drop the entry" p v)
    allow;
  let elapsed = Sys.time () -. t0 in
  Printf.printf "surface: %d interface values in %d files, %d allowlisted, %.3fs\n"
    (List.length vals) (List.length files) (List.length allow) elapsed;
  if elapsed >= 1.0 then fail "the surface scan took %.3fs (limit 1s)" elapsed;
  match List.rev !problems with
  | [] -> ()
  | ps ->
      List.iter prerr_endline ps;
      exit 1
