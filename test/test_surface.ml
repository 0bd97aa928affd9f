(* Guard on the library surface: every [val] of a [lib/**/*.mli] must
   be used by some program file (under lib, bin, bench, perfbench or
   examples) outside its own module, or be listed with a reason in
   surface_allow.txt.  A value only the tests use fails, and so does an
   allowlist entry that has gone stale (its value is now used elsewhere,
   or no longer declared).

   A use is a qualified reference, [Cgra.make] or [Ocgra_arch.Cgra.make],
   where the module path may start with a module alias of that file
   ([module Sat = Ocgra_sat.Solver] makes [Sat.solve] a use of
   lib/sat/solver.mli's [solve]).  A library wrapper at the head of the
   path ([Ocgra_sat] for lib/sat) pins the library; without one the
   reference counts for every interface of that module name.  A bare
   identifier counts only in a file that opens the module ([open M],
   [let open M in], or a local [M.( ... )]), so another module's value
   of the same name hides nothing.  Comments and string literals are
   blanked first.  Record fields and types read as values too, which
   can only keep a value, never fail one; no type information is
   needed. *)

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

(* A dotted name as written, e.g. [["Ocgra_sat"; "Solver"; "solve"]],
   and whether a local open [M.( ... )] follows it; [=] on its own and
   [!] are kept for [module A = P] and [open! P]. *)
type token = Name of string list * bool | Eq | Bang | Other

let tokens code =
  let n = String.length code in
  let start_char c = match c with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false in
  let body_char c =
    match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false
  in
  let op_char c = String.contains "=<>:!|&$@^+-*/%~?." c in
  let ident_end i =
    let j = ref i in
    while !j < n && body_char code.[!j] do
      incr j
    done;
    !j
  in
  (* the components of the path starting at [i], its end, and whether
     a local open follows *)
  let rec path i comps =
    let j = ident_end i in
    let comps = String.sub code i (j - i) :: comps in
    if j + 1 < n && code.[j] = '.' && start_char code.[j + 1] then path (j + 1) comps
    else (List.rev comps, j, j + 1 < n && code.[j] = '.' && code.[j + 1] = '(')
  in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match code.[i] with
      | c when start_char c && (i = 0 || not (body_char code.[i - 1])) ->
          if i > 0 && code.[i - 1] = '.' then
            (* a field after an expression, as in (f x).field *)
            go (ident_end i) (Other :: acc)
          else
            let comps, j, local_open = path i [] in
            go j (Name (comps, local_open) :: acc)
      | '=' when (i = 0 || not (op_char code.[i - 1])) && (i + 1 >= n || not (op_char code.[i + 1])) ->
          go (i + 1) (Eq :: acc)
      | '!' -> go (i + 1) (Bang :: acc)
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) acc
      | _ -> go (i + 1) (Other :: acc)
  in
  go 0 []

let capitalised s = s <> "" && Char.uppercase_ascii s.[0] = s.[0] && s.[0] <> '_'

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
let declared toks =
  let rec go acc = function
    | Name ([ "val" ], _) :: Name ([ name ], _) :: rest when not (capitalised name) -> go (name :: acc) rest
    | _ :: rest -> go acc rest
    | [] -> List.rev acc
  in
  go [] toks

let module_of path = Filename.remove_extension path

(* The library directory a wrapper name stands for: [Ocgra_sat] is the
   library of lib/sat (every lib/ directory is named that way). *)
let library_of wrapper =
  let prefix = "Ocgra_" in
  let k = String.length prefix in
  if String.length wrapper > k && String.sub wrapper 0 k = prefix then
    Some ("lib/" ^ String.sub wrapper k (String.length wrapper - k))
  else None

(* The (library, module, value) uses one file makes: the library is
   [None] when the path names no wrapper. *)
let uses toks =
  let aliases = Hashtbl.create 16 in
  let rec scan_aliases = function
    | Name ([ "module" ], _) :: Name ([ a ], _) :: Eq :: Name (p, false) :: rest
      when capitalised a && List.for_all capitalised p ->
        Hashtbl.replace aliases a p;
        scan_aliases rest
    | _ :: rest -> scan_aliases rest
    | [] -> ()
  in
  scan_aliases toks;
  let expand = function
    | c :: rest when Hashtbl.mem aliases c -> Hashtbl.find aliases c @ rest
    | p -> p
  in
  (* the module path [p] as a library and the modules along it *)
  let resolve p =
    match expand p with
    | w :: mods when library_of w <> None -> (library_of w, mods)
    | mods -> (None, mods)
  in
  let found = ref [] and opened = ref [] and bare = ref [] in
  let open_path p =
    match resolve p with
    | _, [] -> ()
    | lib, mods -> opened := (lib, List.nth mods (List.length mods - 1)) :: !opened
  in
  let rec go = function
    | Name ([ "open" ], _) :: Bang :: Name (p, _) :: rest | Name ([ "open" ], _) :: Name (p, _) :: rest ->
        open_path p;
        go rest
    | Name (p, true) :: rest ->
        open_path p;
        go rest
    | Name ((first :: _ as comps), false) :: rest ->
        (if not (capitalised first) then bare := first :: !bare
         else
           let mods = List.filter capitalised comps and v = List.nth comps (List.length comps - 1) in
           if not (capitalised v) then
             let lib, mods = resolve mods in
             List.iter (fun m -> found := (lib, m, v) :: !found) mods);
        go rest
    | _ :: rest -> go rest
    | [] -> ()
  in
  go toks;
  let bare = List.sort_uniq compare !bare in
  List.iter
    (fun (lib, m) -> List.iter (fun v -> found := (lib, m, v) :: !found) bare)
    (List.sort_uniq compare !opened);
  !found

let () =
  let t0 = Sys.time () in
  let files = List.concat_map sources roots in
  let toks = Hashtbl.create 256 in
  List.iter (fun path -> Hashtbl.replace toks path (tokens (strip (read path)))) files;
  (* (module, value) -> (library, module stem of the using file) *)
  let users = Hashtbl.create 4096 in
  List.iter
    (fun path ->
      let stem = module_of path in
      List.iter
        (fun (lib, m, v) -> Hashtbl.add users (m, v) (lib, stem))
        (List.sort_uniq compare (uses (Hashtbl.find toks path))))
    files;
  let used_outside p v =
    let stem = module_of p in
    let m = String.capitalize_ascii (Filename.basename stem) in
    let dir = Filename.dirname p in
    List.exists
      (fun (lib, stem') -> stem' <> stem && (lib = None || lib = Some dir))
      (Hashtbl.find_all users (m, v))
  in
  let interfaces =
    List.filter
      (fun p -> String.length p > 4 && String.sub p 0 4 = "lib/" && Filename.check_suffix p ".mli")
      files
  in
  let vals =
    List.concat_map (fun p -> List.map (fun v -> (p, v)) (declared (Hashtbl.find toks p))) interfaces
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
      if (not (used_outside p v)) && not (List.mem (p, v) allow) then
        fail "%s: val %s is used by no program file outside its module (tests do not count)" p v)
    vals;
  List.iter
    (fun (p, v) ->
      if not (List.mem (p, v) vals) then fail "surface_allow.txt: %s no longer declares %s" p v
      else if used_outside p v then
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
