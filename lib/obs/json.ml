(* Minimal JSON (RFC 8259): one recursive-descent reader and one
   printer, shared by every JSON producer and consumer in the tree —
   wire requests and responses, event logs, trace and metrics exports,
   checkpoint journals and BENCH_*.json snapshots.

   Object member order is preserved both ways; numbers are floats.
   The printer has one fixed layout (compact, no whitespace) so its
   output is byte-stable: integral numbers up to 2^53 print as
   integers, other finite numbers with the shortest of %.15g / %.17g
   that reads back exactly, and non-finite ones as null. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Fail of int * string

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let hex4 () =
    let digit i =
      match s.[!pos + i] with
      | '0' .. '9' as c -> Char.code c - 48
      | 'a' .. 'f' as c -> Char.code c - 87
      | 'A' .. 'F' as c -> Char.code c - 55
      | _ -> fail "bad \\u escape: expected four hex digits"
    in
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = (digit 0 lsl 12) lor (digit 1 lsl 8) lor (digit 2 lsl 4) lor digit 3 in
    pos := !pos + 4;
    v
  in
  let utf8_add b cp =
    (* encode one scalar; lone surrogates pass through as-is, which is
       lossy but never raises — snapshots are ASCII in practice *)
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let string_body () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        (if !pos >= n then fail "unterminated escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'n' -> Buffer.add_char b '\n'
         | 'r' -> Buffer.add_char b '\r'
         | 't' -> Buffer.add_char b '\t'
         | 'u' -> utf8_add b (hex4 ())
         | _ -> fail "bad escape");
        go ()
      end
      else if Char.code c < 0x20 then fail "raw control character in string"
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let number () =
    let start = !pos in
    let digit () =
      match peek () with
      | Some ('0' .. '9') ->
          advance ();
          true
      | _ -> false
    in
    let digits1 () = if not (digit ()) then fail "expected digit" else while digit () do () done in
    (match peek () with Some '-' -> advance () | _ -> ());
    (match peek () with
    | Some '0' -> advance ()
    | _ -> digits1 ());
    (match peek () with
    | Some '.' ->
        advance ();
        digits1 ()
    | _ -> ());
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits1 ()
    | _ -> ());
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = string_body () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or } in object"
          in
          members []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elems acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ] in array"
          in
          elems []
        end
    | Some '"' -> Str (string_body ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) -> Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_string = function
  | Str s -> Some s
  | _ -> None

let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= 2.0 ** 53.0 -> Some (int_of_float f)
  | _ -> None

let to_bool = function
  | Bool b -> Some b
  | _ -> None

let to_list = function
  | Arr xs -> Some xs
  | _ -> None

let add_string b s =
  Buffer.add_char b '"';
  let n = String.length s in
  let flush from upto = if upto > from then Buffer.add_substring b s from (upto - from) in
  let rec go from i =
    if i = n then flush from i
    else
      let esc =
        match s.[i] with
        | '"' -> "\\\""
        | '\\' -> "\\\\"
        | '\n' -> "\\n"
        | '\r' -> "\\r"
        | '\t' -> "\\t"
        | c when Char.code c < 0x20 -> Printf.sprintf "\\u%04x" (Char.code c)
        | _ -> ""
      in
      if esc = "" then go from (i + 1)
      else begin
        flush from i;
        Buffer.add_string b esc;
        go (i + 1) (i + 1)
      end
  in
  go 0 0;
  Buffer.add_char b '"'

let add_num b f =
  if Float.is_integer f && Float.abs f <= 0x1p53 then
    Buffer.add_string b (string_of_int (int_of_float f))
  else if Float.is_finite f then begin
    let s = Printf.sprintf "%.15g" f in
    Buffer.add_string b (if float_of_string s = f then s else Printf.sprintf "%.17g" f)
  end
  else Buffer.add_string b "null"

let render v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Num f -> add_num b f
    | Str s -> add_string b s
    | Arr xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            go x)
          xs;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char b ',';
            add_string b k;
            Buffer.add_char b ':';
            go x)
          kvs;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

let int i = Num (float_of_int i)
