//! Request-line compatibility table for `parse_line`.
//!
//! Each row is a request line and what `parse_line` made of it when the
//! table was recorded: `Ok: <Debug of the WireMsg>` or `Err: <message>`.
//! Comparing `Debug` text compares every float bit for bit (`-0.0` and
//! `0.0` print differently, and `Debug` prints the shortest decimal that
//! round-trips). Schema errors must match word for word; for syntax
//! errors only the `invalid JSON: ` prefix is pinned, the detail after it
//! is free to change.
//!
//! The rows cover key order, whitespace, unknown keys, duplicate keys
//! (the last one wins), `null` (counts as absent), `-0`, integers above
//! 2^53 and above `u64::MAX`, string escapes and surrogate pairs, `cap` in
//! all three forms, every control op, every schema error and the order in
//! which several errors are reported.

use archline_serve::protocol::parse_line;

fn outcome(line: &str) -> String {
    match parse_line(line) {
        Ok(msg) => format!("Ok: {msg:?}"),
        Err(e) => format!("Err: {e}"),
    }
}

#[test]
fn every_row_parses_as_recorded() {
    const SYNTAX: &str = "Err: invalid JSON: ";
    let mut failures = Vec::new();
    for (line, want) in CASES {
        let got = outcome(line);
        let same = match want.strip_prefix(SYNTAX) {
            Some(_) => got.starts_with(SYNTAX),
            None => got == *want,
        };
        if !same {
            failures.push(format!("line: {line}\n want: {want}\n  got: {got}"));
        }
    }
    assert!(failures.is_empty(), "{} rows differ:\n{}", failures.len(), failures.join("\n"));
}

/// Rows whose outcome differs from the recorded table on purpose.
#[test]
fn deliberate_changes_parse_as_documented() {
    for (line, want) in [
        // Size limits are checked at admission (`validate_query`), not
        // here: an oversized sweep or crossover arrives unshrunk and is
        // rejected with the in-process message.
        (
            r#"{"id":1,"platform":"x","query":{"kind":"sweep","metric":"perf","lo":1,"hi":2,"points":2000000}}"#,
            "Ok: Request(Request { id: 1, platform: \"x\", double_precision: false, cap: None, deadline_ms: None, trace: None, query: Sweep { metric: Perf, lo: 1.0, hi: 2.0, points: 2000000 } })",
        ),
        (
            r#"{"id":1,"platform":"x","query":{"kind":"crossover","other":"y","metric":"perf","lo":1,"hi":2,"grid":18446744073709551615}}"#,
            "Ok: Request(Request { id: 1, platform: \"x\", double_precision: false, cap: None, deadline_ms: None, trace: None, query: Crossover { other: \"y\", metric: Perf, lo: 1.0, hi: 2.0, grid: 18446744073709551615 } })",
        ),
        (
            r#"{"id":1,"platform":"x","query":{"kind":"eval","flops":[1],"bytes":[1,2]}}"#,
            "Ok: Request(Request { id: 1, platform: \"x\", double_precision: false, cap: None, deadline_ms: None, trace: None, query: Eval { flops: [1.0], bytes: [1.0, 2.0] } })",
        ),
        (
            r#"{"id":1,"platform":"x","query":{"kind":"eval","flops":[],"bytes":[]}}"#,
            "Ok: Request(Request { id: 1, platform: \"x\", double_precision: false, cap: None, deadline_ms: None, trace: None, query: Eval { flops: [], bytes: [] } })",
        ),
        // A high surrogate followed by an escape that is not a low
        // surrogate is a syntax error, not an arithmetic overflow.
        (r#"{"op":"\ud800\u0041"}"#, "Err: invalid JSON: unpaired surrogate"),
        (r#"{"op":"\ud800\ue000"}"#, "Err: invalid JSON: unpaired surrogate"),
    ] {
        assert_eq!(outcome(line), want, "{line}");
    }
}

const CASES: &[(&str, &str)] = &[
    (
        r##"{"id":7,"platform":"GTX Titan","query":{"kind":"eval","flops":[1e9,2e9],"bytes":[1e8,1e8]}}"##,
        r##"Ok: Request(Request { id: 7, platform: "GTX Titan", double_precision: false, cap: None, deadline_ms: None, trace: None, query: Eval { flops: [1000000000.0, 2000000000.0], bytes: [100000000.0, 100000000.0] } })"##,
    ),
    (
        r##"{"query":{"bytes":[1e8,1e8],"flops":[1e9,2e9],"kind":"eval"},"platform":"GTX Titan","id":7}"##,
        r##"Ok: Request(Request { id: 7, platform: "GTX Titan", double_precision: false, cap: None, deadline_ms: None, trace: None, query: Eval { flops: [1000000000.0, 2000000000.0], bytes: [100000000.0, 100000000.0] } })"##,
    ),
    (
        r##"  { "id" : 7 ,	"platform" : "GTX Titan" , "query" : { "kind" : "eval" , "flops" : [ 1e9 , 2e9 ] , "bytes" : [ 1e8 , 1e8 ] } }  "##,
        r##"Ok: Request(Request { id: 7, platform: "GTX Titan", double_precision: false, cap: None, deadline_ms: None, trace: None, query: Eval { flops: [1000000000.0, 2000000000.0], bytes: [100000000.0, 100000000.0] } })"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","precision":"double","cap":{"throttle":2.0},"deadline_ms":50,"trace":"BEEF","query":{"kind":"sweep","metric":"energy_eff","lo":0.1,"hi":100.0,"points":32}}"##,
        r##"Ok: Request(Request { id: 1, platform: "NUC CPU", double_precision: true, cap: Some(Throttle(2.0)), deadline_ms: Some(50), trace: Some(TraceId(48879)), query: Sweep { metric: EnergyEff, lo: 0.1, hi: 100.0, points: 32 } })"##,
    ),
    (
        r##"{"id":2,"platform":"GTX 680","cap":"uncapped","query":{"kind":"crossover","other":"Arndale GPU","metric":"perf","lo":0.5,"hi":50.0}}"##,
        r##"Ok: Request(Request { id: 2, platform: "GTX 680", double_precision: false, cap: Some(Uncapped), deadline_ms: None, trace: None, query: Crossover { other: "Arndale GPU", metric: Perf, lo: 0.5, hi: 50.0, grid: 256 } })"##,
    ),
    (
        r##"{"id":3,"platform":"GTX 680","cap":{"watts":150.5},"query":{"kind":"crossover","other":"Arndale GPU","metric":"power","lo":0.5,"hi":50,"grid":1000}}"##,
        r##"Ok: Request(Request { id: 3, platform: "GTX 680", double_precision: false, cap: Some(Watts(150.5)), deadline_ms: None, trace: None, query: Crossover { other: "Arndale GPU", metric: Power, lo: 0.5, hi: 50.0, grid: 1000 } })"##,
    ),
    (
        r##"{"id":4,"platform":"NUC CPU","precision":"single","query":{"kind":"sweep","metric":"perf","lo":1,"hi":2}}"##,
        r##"Ok: Request(Request { id: 4, platform: "NUC CPU", double_precision: false, cap: None, deadline_ms: None, trace: None, query: Sweep { metric: Perf, lo: 1.0, hi: 2.0, points: 64 } })"##,
    ),
    (
        r##"{"id":5,"platform":"NUC CPU","cap":{"throttle":null,"watts":3},"query":{"kind":"eval","flops":[1],"bytes":[2]}}"##,
        r##"Ok: Request(Request { id: 5, platform: "NUC CPU", double_precision: false, cap: Some(Watts(3.0)), deadline_ms: None, trace: None, query: Eval { flops: [1.0], bytes: [2.0] } })"##,
    ),
    (
        r##"{"id":5,"platform":"NUC CPU","cap":{"throttle":4,"watts":3},"query":{"kind":"eval","flops":[1],"bytes":[2]}}"##,
        r##"Ok: Request(Request { id: 5, platform: "NUC CPU", double_precision: false, cap: Some(Throttle(4.0)), deadline_ms: None, trace: None, query: Eval { flops: [1.0], bytes: [2.0] } })"##,
    ),
    (
        r##"{"id":5,"platform":"NUC CPU","cap":{"throttle":4,"extra":{"a":[1,{"b":null}]}},"query":{"kind":"eval","flops":[1],"bytes":[2]}}"##,
        r##"Ok: Request(Request { id: 5, platform: "NUC CPU", double_precision: false, cap: Some(Throttle(4.0)), deadline_ms: None, trace: None, query: Eval { flops: [1.0], bytes: [2.0] } })"##,
    ),
    (
        r##"{"id":6,"platform":"NUC CPU","precision":null,"cap":null,"deadline_ms":null,"trace":null,"op":null,"query":{"kind":"sweep","metric":"perf","lo":1,"hi":2,"points":null}}"##,
        r##"Ok: Request(Request { id: 6, platform: "NUC CPU", double_precision: false, cap: None, deadline_ms: None, trace: None, query: Sweep { metric: Perf, lo: 1.0, hi: 2.0, points: 64 } })"##,
    ),
    (
        r##"{"id":6,"platform":"NUC CPU","query":{"kind":"crossover","other":"GTX 680","metric":"perf","lo":1,"hi":2,"grid":null}}"##,
        r##"Ok: Request(Request { id: 6, platform: "NUC CPU", double_precision: false, cap: None, deadline_ms: None, trace: None, query: Crossover { other: "GTX 680", metric: Perf, lo: 1.0, hi: 2.0, grid: 256 } })"##,
    ),
    (
        r##"{"id":8,"platform":"NUC CPU","junk":[1,2,{"x":"y\"z\\"}],"more":{"nested":{"deep":[[[]]]}},"t":true,"f":false,"n":null,"query":{"kind":"eval","flops":[1],"bytes":[2],"extra":"x","e2":{"k":[true]}}}"##,
        r##"Ok: Request(Request { id: 8, platform: "NUC CPU", double_precision: false, cap: None, deadline_ms: None, trace: None, query: Eval { flops: [1.0], bytes: [2.0] } })"##,
    ),
    (
        r##"{"id":1,"id":9,"platform":"A","platform":"NUC CPU","query":{"kind":"eval","flops":[5],"bytes":[6]}}"##,
        r##"Ok: Request(Request { id: 9, platform: "NUC CPU", double_precision: false, cap: None, deadline_ms: None, trace: None, query: Eval { flops: [5.0], bytes: [6.0] } })"##,
    ),
    (
        r##"{"id":9,"platform":"NUC CPU","query":5,"query":{"kind":"eval","flops":[5],"bytes":[6]}}"##,
        r##"Ok: Request(Request { id: 9, platform: "NUC CPU", double_precision: false, cap: None, deadline_ms: None, trace: None, query: Eval { flops: [5.0], bytes: [6.0] } })"##,
    ),
    (
        r##"{"id":9,"platform":"NUC CPU","query":{"kind":"eval","flops":[5],"bytes":[6]},"query":{"kind":"sweep","metric":"perf","lo":1,"hi":2}}"##,
        r##"Ok: Request(Request { id: 9, platform: "NUC CPU", double_precision: false, cap: None, deadline_ms: None, trace: None, query: Sweep { metric: Perf, lo: 1.0, hi: 2.0, points: 64 } })"##,
    ),
    (
        r##"{"id":9,"platform":"NUC CPU","query":{"kind":"eval","kind":"sweep","metric":"perf","lo":1,"hi":2,"lo":3}}"##,
        r##"Ok: Request(Request { id: 9, platform: "NUC CPU", double_precision: false, cap: None, deadline_ms: None, trace: None, query: Sweep { metric: Perf, lo: 3.0, hi: 2.0, points: 64 } })"##,
    ),
    (
        r##"{"id":9,"platform":"NUC CPU","cap":"uncapped","cap":{"throttle":3},"query":{"kind":"eval","flops":[5],"bytes":[6]}}"##,
        r##"Ok: Request(Request { id: 9, platform: "NUC CPU", double_precision: false, cap: Some(Throttle(3.0)), deadline_ms: None, trace: None, query: Eval { flops: [5.0], bytes: [6.0] } })"##,
    ),
    (
        r##"{"id":9,"platform":"NUC CPU","cap":{"throttle":3},"cap":"uncapped","query":{"kind":"eval","flops":[5],"bytes":[6]}}"##,
        r##"Ok: Request(Request { id: 9, platform: "NUC CPU", double_precision: false, cap: Some(Uncapped), deadline_ms: None, trace: None, query: Eval { flops: [5.0], bytes: [6.0] } })"##,
    ),
    (
        r##"{"id":9,"platform":"NUC CPU","cap":{"throttle":3},"cap":null,"query":{"kind":"eval","flops":[5],"bytes":[6]}}"##,
        r##"Ok: Request(Request { id: 9, platform: "NUC CPU", double_precision: false, cap: None, deadline_ms: None, trace: None, query: Eval { flops: [5.0], bytes: [6.0] } })"##,
    ),
    (
        r##"{"id":9,"id":null,"platform":"NUC CPU","query":{"kind":"eval","flops":[5],"bytes":[6]}}"##,
        r##"Err: missing `id`"##,
    ),
    (
        r##"{"id":9,"platform":"NUC CPU","query":{"kind":"eval","flops":[5],"flops":null,"bytes":[6]}}"##,
        r##"Err: `flops` must be an array of numbers"##,
    ),
    (
        r##"{"id":10,"platform":"NUC CPU","query":{"kind":"eval","flops":[-0,0,-0.0,0.0,-0e0,-00],"bytes":[1,2,3,4,5,6]}}"##,
        r##"Ok: Request(Request { id: 10, platform: "NUC CPU", double_precision: false, cap: None, deadline_ms: None, trace: None, query: Eval { flops: [0.0, 0.0, -0.0, 0.0, -0.0, 0.0], bytes: [1.0, 2.0, 3.0, 4.0, 5.0, 6.0] } })"##,
    ),
    (
        r##"{"id":11,"platform":"NUC CPU","query":{"kind":"eval","flops":[9007199254740993,18446744073709551615,18446744073709551616,-9223372036854775808,-9223372036854775809,123456789012345678901234567890],"bytes":[1,2,3,4,5,6]}}"##,
        r##"Ok: Request(Request { id: 11, platform: "NUC CPU", double_precision: false, cap: None, deadline_ms: None, trace: None, query: Eval { flops: [9007199254740992.0, 1.8446744073709552e19, 1.8446744073709552e19, -9.223372036854776e18, -9.223372036854776e18, 1.2345678901234568e29], bytes: [1.0, 2.0, 3.0, 4.0, 5.0, 6.0] } })"##,
    ),
    (
        r##"{"id":18446744073709551615,"platform":"NUC CPU","deadline_ms":18446744073709551615,"query":{"kind":"eval","flops":[1],"bytes":[2]}}"##,
        r##"Ok: Request(Request { id: 18446744073709551615, platform: "NUC CPU", double_precision: false, cap: None, deadline_ms: Some(18446744073709551615), trace: None, query: Eval { flops: [1.0], bytes: [2.0] } })"##,
    ),
    (
        r##"{"id":12,"platform":"NUC CPU","query":{"kind":"eval","flops":[1E5,1e+5,1e-5,1.5e-3,0.1,1.,-.5,01,1e400,-1e400,2.5E-320,4.9e-324,1.7976931348623157e308],"bytes":[1,2,3,4,5,6,7,8,9,10,11,12,13]}}"##,
        r##"Ok: Request(Request { id: 12, platform: "NUC CPU", double_precision: false, cap: None, deadline_ms: None, trace: None, query: Eval { flops: [100000.0, 100000.0, 1e-5, 0.0015, 0.1, 1.0, -0.5, 1.0, inf, -inf, 2.5e-320, 5e-324, 1.7976931348623157e308], bytes: [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0] } })"##,
    ),
    (
        r##"{"id":13,"platform":"GTX Titan","query":{"kind":"eval","flops":[1],"bytes":[2]}}"##,
        r##"Ok: Request(Request { id: 13, platform: "GTX Titan", double_precision: false, cap: None, deadline_ms: None, trace: None, query: Eval { flops: [1.0], bytes: [2.0] } })"##,
    ),
    (
        r##"{"id":13,"platform":"\"q\" \\ \/ \b \f \n \r \t é 😀 \u0000 é 😀","query":{"kind":"eval","flops":[1],"bytes":[2]}}"##,
        r##"Ok: Request(Request { id: 13, platform: "\"q\" \\ / \u{8} \u{c} \n \r \t é 😀 \0 é 😀", double_precision: false, cap: None, deadline_ms: None, trace: None, query: Eval { flops: [1.0], bytes: [2.0] } })"##,
    ),
    (
        r##"{"id":14,"platform":"NUC CPU","query":{"kind":"eval","flops":[1],"bytes":[2]}}"##,
        r##"Ok: Request(Request { id: 14, platform: "NUC CPU", double_precision: false, cap: None, deadline_ms: None, trace: None, query: Eval { flops: [1.0], bytes: [2.0] } })"##,
    ),
    (
        r##"{"id":15,"platform":"NUC CPU","trace":"0","query":{"kind":"eval","flops":[1],"bytes":[2]}}"##,
        r##"Ok: Request(Request { id: 15, platform: "NUC CPU", double_precision: false, cap: None, deadline_ms: None, trace: Some(TraceId(0)), query: Eval { flops: [1.0], bytes: [2.0] } })"##,
    ),
    (
        r##"{"id":15,"platform":"NUC CPU","trace":"ffffffffffffffff","query":{"kind":"eval","flops":[1],"bytes":[2]}}"##,
        r##"Ok: Request(Request { id: 15, platform: "NUC CPU", double_precision: false, cap: None, deadline_ms: None, trace: Some(TraceId(18446744073709551615)), query: Eval { flops: [1.0], bytes: [2.0] } })"##,
    ),
    (
        r##"{"id":16,"platform":"NUC CPU","query":{"kind":"sweep","metric":"power","lo":0.001,"hi":1000,"points":1048576}}"##,
        r##"Ok: Request(Request { id: 16, platform: "NUC CPU", double_precision: false, cap: None, deadline_ms: None, trace: None, query: Sweep { metric: Power, lo: 0.001, hi: 1000.0, points: 1048576 } })"##,
    ),
    (
        r##"{"id":16,"platform":"NUC CPU","query":{"kind":"sweep","metric":"power","lo":0.001,"hi":1000,"points":0}}"##,
        r##"Ok: Request(Request { id: 16, platform: "NUC CPU", double_precision: false, cap: None, deadline_ms: None, trace: None, query: Sweep { metric: Power, lo: 0.001, hi: 1000.0, points: 0 } })"##,
    ),
    (
        r##"{"id":17,"platform":"","query":{"kind":"crossover","other":"","metric":"energy_eff","lo":-1,"hi":-2,"grid":0}}"##,
        r##"Ok: Request(Request { id: 17, platform: "", double_precision: false, cap: None, deadline_ms: None, trace: None, query: Crossover { other: "", metric: EnergyEff, lo: -1.0, hi: -2.0, grid: 0 } })"##,
    ),
    (r##"{"op":"ping"}"##, r##"Ok: Ping"##),
    (r##"{"op":"stats"}"##, r##"Ok: Stats"##),
    (r##"{"op":"metrics"}"##, r##"Ok: Metrics"##),
    (r##"{"op":"shutdown"}"##, r##"Ok: Shutdown"##),
    (r##"{"op":"ping","id":"junk","platform":5,"query":[]}"##, r##"Ok: Ping"##),
    (r##" {"op" : "shutdown"} "##, r##"Ok: Shutdown"##),
    (r##"{"op":"ping","op":"stats"}"##, r##"Ok: Stats"##),
    (r##"{"op":"reboot"}"##, r##"Err: unknown op `reboot`"##),
    (r##"{"op":5}"##, r##"Err: `op` must be a string"##),
    (r##"{"op":["ping"]}"##, r##"Err: `op` must be a string"##),
    (r##"{"op":""}"##, r##"Err: unknown op ``"##),
    (r##"not json"##, r##"Err: invalid JSON: unexpected character `n` at byte 0"##),
    (r##""##, r##"Err: invalid JSON: unexpected end of input"##),
    (r##"{}"##, r##"Err: missing `id`"##),
    (r##"[1,2]"##, r##"Err: request must be a JSON object"##),
    (r##""str""##, r##"Err: request must be a JSON object"##),
    (r##"5"##, r##"Err: request must be a JSON object"##),
    (r##"null"##, r##"Err: request must be a JSON object"##),
    (r##"true"##, r##"Err: request must be a JSON object"##),
    (r##"{"op":"ping"} x"##, r##"Err: invalid JSON: trailing characters at byte 14"##),
    (r##"{"op":"ping"}}"##, r##"Err: invalid JSON: trailing characters at byte 13"##),
    (r##"{"op":"ping""##, r##"Err: invalid JSON: expected `,` or `}` at byte 12"##),
    (r##"{"op":"pi"##, r##"Err: invalid JSON: unterminated string"##),
    (r##"{"op":"p\qng"}"##, r##"Err: invalid JSON: invalid escape `\q`"##),
    (r##"{"op":"p	ng"}"##, r##"Err: invalid JSON: unterminated string"##),
    (r##"{"op":"\ud800"}"##, r##"Err: invalid JSON: unpaired surrogate"##),
    (r##"{"op":"\udc00"}"##, r##"Err: invalid JSON: invalid unicode escape"##),
    (r##"{"op":"\u12"}"##, r##"Err: invalid JSON: bad \u escape `12"}`"##),
    (r##"{"op":"\u12g4"}"##, r##"Err: invalid JSON: bad \u escape `12g4`"##),
    (r##"{'op':'ping'}"##, r##"Err: invalid JSON: expected `"` at byte 1"##),
    (r##"{"op":"ping",}"##, r##"Err: invalid JSON: expected `"` at byte 13"##),
    (
        r##"{"id":1,"platform":"x","query":{"kind":"eval","flops":[1,],"bytes":[1]}}"##,
        r##"Err: invalid JSON: unexpected character `]` at byte 57"##,
    ),
    (
        r##"{"id":1,"platform":"x","query":{"kind":"eval","flops":[+1],"bytes":[1]}}"##,
        r##"Err: invalid JSON: unexpected character `+` at byte 55"##,
    ),
    (
        r##"{"id":1,"platform":"x","query":{"kind":"eval","flops":[1-2],"bytes":[1]}}"##,
        r##"Err: invalid JSON: invalid number `1-2`"##,
    ),
    (
        r##"{"id":1,"platform":"x","query":{"kind":"eval","flops":[-],"bytes":[1]}}"##,
        r##"Err: invalid JSON: invalid number `-`"##,
    ),
    (
        r##"{"id":1,"platform":"x","query":{"kind":"eval","flops":[1e],"bytes":[1]}}"##,
        r##"Err: invalid JSON: invalid number `1e`"##,
    ),
    (
        r##"{"id":1,"platform":"x","query":{"kind":"eval","flops":[nul],"bytes":[1]}}"##,
        r##"Err: invalid JSON: unexpected character `n` at byte 55"##,
    ),
    (
        r##"{"id":1,"platform":"x","query":{"kind":"eval","flops":[NaN],"bytes":[1]}}"##,
        r##"Err: invalid JSON: unexpected character `N` at byte 55"##,
    ),
    (
        r##"{"id":1,"platform":"x","query":{"kind":"eval","flops":[1],"bytes":[1]},"z":tru}"##,
        r##"Err: invalid JSON: unexpected character `t` at byte 75"##,
    ),
    (r##"{"id":"x","platform":"##, r##"Err: invalid JSON: unexpected end of input"##),
    (r##"{"id":1 "platform":"x"}"##, r##"Err: invalid JSON: expected `,` or `}` at byte 8"##),
    (
        r##"{"id":1,"platform":"x" "query":{}}"##,
        r##"Err: invalid JSON: expected `,` or `}` at byte 23"##,
    ),
    (r##"{1:2}"##, r##"Err: invalid JSON: expected `"` at byte 1"##),
    (r##"{"id"}"##, r##"Err: invalid JSON: expected `:` at byte 5"##),
    (r##"{"id":}"##, r##"Err: invalid JSON: unexpected character `}` at byte 6"##),
    (r##"{"id":-1,"platform":"NUC CPU"}"##, r##"Err: `id` must be a non-negative integer"##),
    (r##"{"id":1.5,"platform":"NUC CPU"}"##, r##"Err: `id` must be a non-negative integer"##),
    (r##"{"id":1.0,"platform":"NUC CPU"}"##, r##"Err: `id` must be a non-negative integer"##),
    (r##"{"id":"7","platform":"NUC CPU"}"##, r##"Err: `id` must be a non-negative integer"##),
    (r##"{"id":-0,"platform":"NUC CPU"}"##, r##"Err: `id` must be a non-negative integer"##),
    (
        r##"{"id":18446744073709551616,"platform":"NUC CPU"}"##,
        r##"Err: `id` must be a non-negative integer"##,
    ),
    (r##"{"id":1}"##, r##"Err: missing `platform`"##),
    (r##"{"platform":"NUC CPU"}"##, r##"Err: missing `id`"##),
    (r##"{"id":null,"platform":null}"##, r##"Err: missing `id`"##),
    (r##"{"id":1,"platform":7}"##, r##"Err: `platform` must be a string"##),
    (r##"{"id":1,"platform":["NUC CPU"]}"##, r##"Err: `platform` must be a string"##),
    (r##"{"id":1,"platform":"NUC CPU","precision":"quad"}"##, r##"Err: unknown precision `quad`"##),
    (r##"{"id":1,"platform":"NUC CPU","precision":2}"##, r##"Err: `precision` must be a string"##),
    (
        r##"{"id":1,"platform":"NUC CPU","deadline_ms":-5}"##,
        r##"Err: `deadline_ms` must be a non-negative integer"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","deadline_ms":1.5}"##,
        r##"Err: `deadline_ms` must be a non-negative integer"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","trace":"nope"}"##,
        r##"Err: `trace` must be 1-16 hex digits, got `nope`"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","trace":""}"##,
        r##"Err: `trace` must be 1-16 hex digits, got ``"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","trace":"0123456789abcdef0"}"##,
        r##"Err: `trace` must be 1-16 hex digits, got `0123456789abcdef0`"##,
    ),
    (r##"{"id":1,"platform":"NUC CPU","trace":12}"##, r##"Err: `trace` must be a string"##),
    (
        r##"{"id":1,"platform":"NUC CPU","cap":{}}"##,
        r##"Err: `cap` object needs `throttle` or `watts`"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","cap":{"throttle":null}}"##,
        r##"Err: `cap` object needs `throttle` or `watts`"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","cap":{"throttle":"2"}}"##,
        r##"Err: `throttle` must be a number"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","cap":{"watts":true}}"##,
        r##"Err: `watts` must be a number"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","cap":{"throttle":null,"watts":"x"}}"##,
        r##"Err: `watts` must be a number"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","cap":"capped"}"##,
        r##"Err: `cap` must be "uncapped" or an object"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","cap":5}"##,
        r##"Err: `cap` must be "uncapped" or an object"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","cap":[1]}"##,
        r##"Err: `cap` must be "uncapped" or an object"##,
    ),
    (r##"{"id":1,"platform":"NUC CPU"}"##, r##"Err: missing `query` object"##),
    (r##"{"id":1,"platform":"NUC CPU","query":null}"##, r##"Err: missing `query` object"##),
    (
        r##"{"id":1,"platform":"NUC CPU","query":[{"kind":"eval"}]}"##,
        r##"Err: missing `query` object"##,
    ),
    (r##"{"id":1,"platform":"NUC CPU","query":"eval"}"##, r##"Err: missing `query` object"##),
    (r##"{"id":1,"platform":"NUC CPU","query":{}}"##, r##"Err: missing `query.kind`"##),
    (r##"{"id":1,"platform":"NUC CPU","query":{"kind":null}}"##, r##"Err: missing `query.kind`"##),
    (r##"{"id":1,"platform":"NUC CPU","query":{"kind":3}}"##, r##"Err: `kind` must be a string"##),
    (
        r##"{"id":1,"platform":"NUC CPU","query":{"kind":"warp"}}"##,
        r##"Err: unknown query kind `warp`"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","query":{"kind":"Eval"}}"##,
        r##"Err: unknown query kind `Eval`"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","query":{"kind":"eval"}}"##,
        r##"Err: `flops` must be an array of numbers"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","query":{"kind":"eval","flops":null,"bytes":[1]}}"##,
        r##"Err: `flops` must be an array of numbers"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","query":{"kind":"eval","flops":5,"bytes":[1]}}"##,
        r##"Err: `flops` must be an array of numbers"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","query":{"kind":"eval","flops":{"a":1},"bytes":[1]}}"##,
        r##"Err: `flops` must be an array of numbers"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","query":{"kind":"eval","flops":[1,"2"],"bytes":[1]}}"##,
        r##"Err: `flops` must contain only numbers"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","query":{"kind":"eval","flops":[1,null],"bytes":[1]}}"##,
        r##"Err: `flops` must contain only numbers"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","query":{"kind":"eval","flops":[[1]],"bytes":[1]}}"##,
        r##"Err: `flops` must contain only numbers"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","query":{"kind":"eval","flops":[1]}}"##,
        r##"Err: `bytes` must be an array of numbers"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","query":{"kind":"eval","flops":[1],"bytes":[true]}}"##,
        r##"Err: `bytes` must contain only numbers"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","query":{"kind":"eval","flops":["x"],"bytes":"y"}}"##,
        r##"Err: `flops` must contain only numbers"##,
    ),
    (r##"{"id":1,"platform":"NUC CPU","query":{"kind":"sweep"}}"##, r##"Err: missing `metric`"##),
    (
        r##"{"id":1,"platform":"NUC CPU","query":{"kind":"sweep","metric":7}}"##,
        r##"Err: `metric` must be a string"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","query":{"kind":"sweep","metric":"speed","lo":1.0,"hi":2.0}}"##,
        r##"Err: unknown metric `speed` (power | perf | energy_eff)"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","query":{"kind":"sweep","metric":"perf"}}"##,
        r##"Err: missing `lo`"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","query":{"kind":"sweep","metric":"perf","lo":"1"}}"##,
        r##"Err: `lo` must be a number"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","query":{"kind":"sweep","metric":"perf","lo":1}}"##,
        r##"Err: missing `hi`"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","query":{"kind":"sweep","metric":"perf","lo":1,"hi":[2]}}"##,
        r##"Err: `hi` must be a number"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","query":{"kind":"sweep","metric":"perf","lo":1,"hi":2,"points":-1}}"##,
        r##"Err: `points` must be a non-negative integer"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","query":{"kind":"sweep","metric":"perf","lo":1,"hi":2,"points":2.5}}"##,
        r##"Err: `points` must be a non-negative integer"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","query":{"kind":"sweep","metric":"perf","lo":1,"hi":2,"points":"64"}}"##,
        r##"Err: `points` must be a non-negative integer"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","query":{"kind":"crossover"}}"##,
        r##"Err: missing `other`"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","query":{"kind":"crossover","other":1}}"##,
        r##"Err: `other` must be a string"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","query":{"kind":"crossover","other":"GTX 680"}}"##,
        r##"Err: missing `metric`"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","query":{"kind":"crossover","other":"GTX 680","metric":"perf"}}"##,
        r##"Err: missing `lo`"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","query":{"kind":"crossover","other":"GTX 680","metric":"perf","lo":1}}"##,
        r##"Err: missing `hi`"##,
    ),
    (
        r##"{"id":1,"platform":"NUC CPU","query":{"kind":"crossover","other":"GTX 680","metric":"perf","lo":1,"hi":2,"grid":-4}}"##,
        r##"Err: `grid` must be a non-negative integer"##,
    ),
    (
        r##"{"query":{"kind":"warp"},"cap":5,"trace":"zz","deadline_ms":-1,"precision":"quad","platform":7,"id":-1}"##,
        r##"Err: `id` must be a non-negative integer"##,
    ),
    (
        r##"{"query":{"kind":"warp"},"cap":5,"trace":"zz","deadline_ms":-1,"precision":"quad","platform":7,"id":1}"##,
        r##"Err: `platform` must be a string"##,
    ),
    (
        r##"{"query":{"kind":"warp"},"cap":5,"trace":"zz","deadline_ms":-1,"precision":"quad","platform":"x","id":1}"##,
        r##"Err: unknown precision `quad`"##,
    ),
    (
        r##"{"query":{"kind":"warp"},"cap":5,"trace":"zz","deadline_ms":-1,"platform":"x","id":1}"##,
        r##"Err: `deadline_ms` must be a non-negative integer"##,
    ),
    (
        r##"{"query":{"kind":"warp"},"cap":5,"trace":"zz","platform":"x","id":1}"##,
        r##"Err: `trace` must be 1-16 hex digits, got `zz`"##,
    ),
    (
        r##"{"query":{"kind":"warp"},"cap":5,"platform":"x","id":1}"##,
        r##"Err: `cap` must be "uncapped" or an object"##,
    ),
    (
        r##"{"query":{"kind":"sweep","hi":"x","lo":"y","metric":"nope"},"platform":"x","id":1}"##,
        r##"Err: unknown metric `nope` (power | perf | energy_eff)"##,
    ),
    (
        r##"{"query":{"kind":"crossover","hi":"x","lo":"y","metric":"nope","other":5},"platform":"x","id":1}"##,
        r##"Err: `other` must be a string"##,
    ),
    (r##"{"id":1,"platform":"NUC CPU","query":{"kind":"warp"},"op":"ping"}"##, r##"Ok: Ping"##),
    (
        r##"{"id":"x","platform":"NUC CPU","query":{"kind":"eval","flops":[1],"bytes":[1]},"zz":[1,2"##,
        r##"Err: invalid JSON: expected `,` or `]` at byte 88"##,
    ),
];
