(* Minimal dependency-free JSON reader (RFC 8259 grammar). The telemetry
   reports, Chrome traces and bench JSON files are emitted by hand-written
   printers; [validate] checks them in tests and right after writing, so a
   malformed escape or a trailing comma fails the producing run instead of
   a downstream consumer, and [parse] reads them back (the bench's
   baseline comparison). *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

exception Bad_json of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos else fail (Printf.sprintf "expected %c" c)
  in
  let hex_digit () =
    let d =
      match peek () with
      | Some ('0' .. '9' as c) -> Char.code c - Char.code '0'
      | Some ('a' .. 'f' as c) -> Char.code c - Char.code 'a' + 10
      | Some ('A' .. 'F' as c) -> Char.code c - Char.code 'A' + 10
      | _ -> fail "unicode escape"
    in
    incr pos;
    d
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> Jstr (string_lit ())
    | Some ('t' | 'f' | 'n') -> keyword ()
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "value"
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then (
      incr pos;
      Jobj [])
    else begin
      let rec members acc =
        skip_ws ();
        let k = string_lit () in
        skip_ws ();
        expect ':';
        let acc = (k, value ()) :: acc in
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          members acc
        | Some '}' ->
          incr pos;
          Jobj (List.rev acc)
        | _ -> fail "object"
      in
      members []
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then (
      incr pos;
      Jarr [])
    else begin
      let rec elems acc =
        let acc = value () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          elems acc
        | Some ']' ->
          incr pos;
          Jarr (List.rev acc)
        | _ -> fail "array"
      in
      elems []
    end
  and string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec chars () =
      match peek () with
      | Some '"' ->
        incr pos;
        Buffer.contents b
      | Some '\\' ->
        incr pos;
        (match peek () with
        | Some 'u' ->
          incr pos;
          let code = ref 0 in
          for _ = 1 to 4 do
            code := (!code * 16) + hex_digit ()
          done;
          (* a surrogate half is not a scalar value on its own *)
          Buffer.add_utf_8_uchar b
            (if Uchar.is_valid !code then Uchar.of_int !code else Uchar.rep)
        | Some c ->
          Buffer.add_char b
            (match c with
            | '"' | '\\' | '/' -> c
            | 'b' -> '\b'
            | 'f' -> '\012'
            | 'n' -> '\n'
            | 'r' -> '\r'
            | 't' -> '\t'
            | _ -> fail "escape");
          incr pos
        | None -> fail "escape");
        chars ()
      | Some c when Char.code c >= 0x20 ->
        incr pos;
        Buffer.add_char b c;
        chars ()
      | _ -> fail "string"
    in
    chars ()
  and keyword () =
    let ok kw =
      let l = String.length kw in
      if !pos + l <= n && String.sub s !pos l = kw then (
        pos := !pos + l;
        true)
      else false
    in
    if ok "true" then Jbool true
    else if ok "false" then Jbool false
    else if ok "null" then Jnull
    else fail "keyword"
  and number () =
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    let start = !pos in
    while !pos < n && num_char s.[!pos] do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Jnum f
    | None -> fail "number"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let validate s = ignore (parse s)

let check s = match validate s with () -> Ok () | exception Bad_json m -> Error m

(* ---- emission helpers --------------------------------------------------
   These live here (not in Report) so low-level emitters — Recorder,
   Expose — can produce strings this module accepts without pulling in the
   whole report layer. *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* JSON floats: no nan/inf, no exponent surprises for consumers *)
let float_repr f =
  if Float.is_nan f || (Float.is_integer f && Float.abs f < 1e15) then
    Printf.sprintf "%.0f" (if Float.is_nan f then 0.0 else f)
  else if Float.is_finite f then Printf.sprintf "%.6g" f
  else "0"
