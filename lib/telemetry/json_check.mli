(** Minimal dependency-free JSON reader. The telemetry reports, Chrome
    traces and bench JSON files are emitted by hand-written printers; run
    them through {!validate} right after producing (and in tests) so
    malformed output fails at the source, and {!parse} them to read them
    back. Strict RFC 8259 grammar: raw control characters inside strings
    are rejected, [\u] takes exactly 4 hex digits, and a number must also
    convert with [float_of_string_opt]. *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string  (** escapes decoded; [\u] escapes as UTF-8 *)
  | Jarr of json list
  | Jobj of (string * json) list  (** members in document order *)

exception Bad_json of string

(** Raises {!Bad_json} with a position-annotated message on malformed
    input. *)
val parse : string -> json

(** [validate s = ignore (parse s)]. *)
val validate : string -> unit

(** Non-raising variant: [Error msg] on malformed input. *)
val check : string -> (unit, string) result

(** Escape a string for inclusion in a JSON string literal (quotes,
    backslash, control characters; bytes ≥ 0x20 pass through verbatim). *)
val escape : string -> string

(** Render a float with no NaN/Inf and no exponent surprises. *)
val float_repr : float -> string
