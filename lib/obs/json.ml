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

(* The reader allocates only what it returns.  It tests the position
   against the length instead of boxing the byte it looks at, takes a
   string without escapes out in one [String.sub] (a [Buffer] is made
   only once a backslash shows up), and sums an integer literal of at
   most 15 digits in place: such an integer is exact in a float, so it
   reads bit-identical to [float_of_string], which every other number
   still goes through.  Error messages and byte offsets are part of
   the wire format ([serve]'s per-line error responses carry them). *)
let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  (* [next_is c]: the byte at the position is [c]; never past the end *)
  let next_is c = !pos < n && String.unsafe_get s !pos = c in
  let skip_ws () =
    while
      !pos < n && match String.unsafe_get s !pos with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c = if next_is c then incr pos else fail (Printf.sprintf "expected %c" c) in
  let literal word v =
    let l = String.length word in
    let rec same i = i = l || (s.[!pos + i] = word.[i] && same (i + 1)) in
    if !pos + l <= n && same 0 then begin
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
    (* encode one scalar; a lone surrogate passes through as its
       3-byte form, which is lossy but never raises *)
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  (* a [\u] escape, the "\u" already read: a high surrogate directly
     followed by a low-surrogate escape is one supplementary scalar;
     otherwise the position goes back to the second escape, which is
     then read on its own *)
  let unicode_escape b =
    let cp = hex4 () in
    if cp >= 0xD800 && cp <= 0xDBFF && !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
    then begin
      let back = !pos in
      pos := !pos + 2;
      let lo = hex4 () in
      if lo >= 0xDC00 && lo <= 0xDFFF then
        utf8_add b (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
      else begin
        pos := back;
        utf8_add b cp
      end
    end
    else utf8_add b cp
  in
  (* the rest of a string holding a backslash, [b] seeded with the
     bytes before it *)
  let rec escaped b =
    if !pos >= n then fail "unterminated string";
    let c = s.[!pos] in
    incr pos;
    if c = '"' then Buffer.contents b
    else if c = '\\' then begin
      (if !pos >= n then fail "unterminated escape";
       let e = s.[!pos] in
       incr pos;
       match e with
       | '"' -> Buffer.add_char b '"'
       | '\\' -> Buffer.add_char b '\\'
       | '/' -> Buffer.add_char b '/'
       | 'b' -> Buffer.add_char b '\b'
       | 'f' -> Buffer.add_char b '\012'
       | 'n' -> Buffer.add_char b '\n'
       | 'r' -> Buffer.add_char b '\r'
       | 't' -> Buffer.add_char b '\t'
       | 'u' -> unicode_escape b
       | _ -> fail "bad escape");
      escaped b
    end
    else if Char.code c < 0x20 then fail "raw control character in string"
    else begin
      Buffer.add_char b c;
      escaped b
    end
  in
  let string_body () =
    expect '"';
    let start = !pos in
    let rec scan () =
      if !pos >= n then fail "unterminated string";
      match String.unsafe_get s !pos with
      | '"' ->
          incr pos;
          String.sub s start (!pos - 1 - start)
      | '\\' ->
          let b = Buffer.create (!pos - start + 16) in
          Buffer.add_substring b s start (!pos - start);
          escaped b
      | c ->
          incr pos;
          if Char.code c < 0x20 then fail "raw control character in string";
          scan ()
    in
    scan ()
  in
  let is_digit () =
    !pos < n && match String.unsafe_get s !pos with '0' .. '9' -> true | _ -> false
  in
  let digits1 () =
    if not (is_digit ()) then fail "expected digit";
    while is_digit () do
      incr pos
    done
  in
  let number () =
    let start = !pos in
    if next_is '-' then incr pos;
    let int_start = !pos in
    if next_is '0' then incr pos else digits1 ();
    let int_end = !pos in
    let frac = next_is '.' in
    if frac then begin
      incr pos;
      digits1 ()
    end;
    let exp = next_is 'e' || next_is 'E' in
    if exp then begin
      incr pos;
      if next_is '+' || next_is '-' then incr pos;
      digits1 ()
    end;
    if (not frac) && (not exp) && int_end - int_start <= 15 then begin
      let v = ref 0 in
      for i = int_start to int_end - 1 do
        v := (!v * 10) + (Char.code (String.unsafe_get s i) - 48)
      done;
      let f = float_of_int !v in
      (* negated as a float, so "-0" reads -0.0 as float_of_string does *)
      Num (if int_start > start then -.f else f)
    end
    else Num (float_of_string (String.sub s start (!pos - start)))
  in
  let rec value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match String.unsafe_get s !pos with
    | '{' ->
        incr pos;
        skip_ws ();
        if next_is '}' then begin
          incr pos;
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
            if next_is ',' then begin
              incr pos;
              members ((k, v) :: acc)
            end
            else if next_is '}' then begin
              incr pos;
              Obj (List.rev ((k, v) :: acc))
            end
            else fail "expected , or } in object"
          in
          members []
        end
    | '[' ->
        incr pos;
        skip_ws ();
        if next_is ']' then begin
          incr pos;
          Arr []
        end
        else begin
          let rec elems acc =
            let v = value () in
            skip_ws ();
            if next_is ',' then begin
              incr pos;
              elems (v :: acc)
            end
            else if next_is ']' then begin
              incr pos;
              Arr (List.rev (v :: acc))
            end
            else fail "expected , or ] in array"
          in
          elems []
        end
    | '"' -> Str (string_body ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) -> Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

let member k = function
  | Obj kvs ->
      let rec find = function
        | [] -> None
        | (k', v) :: rest -> if String.equal k' k then Some v else find rest
      in
      find kvs
  | _ -> None

let to_string = function
  | Str s -> Some s
  | _ -> None

let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= 0x1p53 -> Some (int_of_float f)
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
