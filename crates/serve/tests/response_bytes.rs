//! Pins the exact bytes of every response shape the server writes.
//!
//! `golden/response_lines.ndjson` holds one line per response below, in the
//! order they are built. Every shape is covered (eval, sweep, crossover and
//! each `Reject` kind), each with and without a trace echo and a phase
//! breakdown, and the float payloads run over the number-rendering edge
//! cases (NaN, ±inf, −0.0, subnormals, integral values, both sides of the
//! 1e-5 and 1e16 notation boundaries) plus random f64 bit patterns.
//!
//! The `phases_us.serialize` entry is a measured duration, so it is masked
//! to `0` on both sides before comparing; every other byte must match.

use archline_serve::protocol::{Phases, QueryResult, Reject, Response, TraceId};

const GOLDEN: &str = include_str!("golden/response_lines.ndjson");

/// splitmix64: a fixed, dependency-free stream of bit patterns.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn edge_floats() -> Vec<f64> {
    let next_up = |v: f64| f64::from_bits(v.to_bits() + 1);
    let next_down = |v: f64| f64::from_bits(v.to_bits() - 1);
    vec![
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        f64::MIN_POSITIVE,
        next_down(f64::MIN_POSITIVE),
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        1.0,
        -1.0,
        2.0,
        3.0,
        100.0,
        -250.0,
        1e15,
        9_007_199_254_740_992.0,
        9_007_199_254_740_994.0,
        next_down(1e16),
        1e16,
        next_up(1e16),
        -1e16,
        1e17,
        1e21,
        1e22,
        1e300,
        1e-5,
        next_down(1e-5),
        next_up(1e-5),
        -1e-5,
        1e-6,
        0.1,
        0.2,
        0.3,
        1.0 / 3.0,
        2.0 / 3.0,
        1.5e-3,
        166.6,
        3.04e-11,
        6.02214076e23,
        123_456_789.123_456_79,
        0.000_123_456_789,
    ]
}

fn random_floats(rng: &mut SplitMix, n: usize) -> Vec<f64> {
    (0..n).map(|_| f64::from_bits(rng.next())).collect()
}

/// Plausible model outputs: a random mantissa scaled over decades.
fn model_floats(rng: &mut SplitMix, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let unit = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
            let decade = (rng.next() % 40) as i32 - 20;
            unit * 10f64.powi(decade)
        })
        .collect()
}

/// Fixed payloads: empty, one point, and the edge cases in every column.
fn fixed_results() -> Vec<QueryResult> {
    let edges = edge_floats();
    let n = edges.len();
    let rotate = |k: usize| -> Vec<f64> { (0..n).map(|i| edges[(i + k) % n]).collect() };
    vec![
        QueryResult::Eval { time: vec![], energy: vec![], power: vec![], regime: vec![] },
        QueryResult::Eval {
            time: vec![1.5e-3],
            energy: vec![0.25],
            power: vec![166.6],
            regime: vec!['M'],
        },
        QueryResult::Eval {
            time: edges.clone(),
            energy: rotate(7),
            power: rotate(19),
            regime: regimes(n),
        },
        // Non-ASCII and escaped regime letters take the string path.
        QueryResult::Eval {
            time: vec![1.0, 2.0, 3.0],
            energy: vec![4.0, 5.0, 6.0],
            power: vec![7.0, 8.0, 9.0],
            regime: vec!['"', '\n', 'é'],
        },
        QueryResult::Sweep { intensity: vec![], value: vec![] },
        QueryResult::Sweep { intensity: edges.clone(), value: rotate(3) },
        QueryResult::Crossover { crossings: vec![] },
        QueryResult::Crossover {
            crossings: edges.iter().enumerate().map(|(i, &x)| (x, i % 2 == 0)).collect(),
        },
    ]
}

fn regimes(len: usize) -> Vec<char> {
    (0..len).map(|i| ['M', 'C', 'F'][i % 3]).collect()
}

/// Random payloads: raw bit patterns and plausible model outputs.
fn random_results(rng: &mut SplitMix) -> Vec<QueryResult> {
    let mut out = Vec::new();
    for _ in 0..3 {
        out.push(QueryResult::Eval {
            time: random_floats(rng, 32),
            energy: random_floats(rng, 32),
            power: model_floats(rng, 32),
            regime: regimes(32),
        });
        out.push(QueryResult::Sweep {
            intensity: model_floats(rng, 64),
            value: random_floats(rng, 64),
        });
        let crossings = random_floats(rng, 16)
            .into_iter()
            .zip(model_floats(rng, 16))
            .map(|(a, b)| (if a.is_finite() { a } else { b }, a.to_bits() % 2 == 0))
            .collect();
        out.push(QueryResult::Crossover { crossings });
    }
    out
}

fn rejects() -> Vec<Reject> {
    vec![
        Reject::BadRequest("missing `id`".to_string()),
        Reject::BadRequest(
            "quote \" backslash \\ newline \n return \r tab \t bell \u{7} bs \u{8} ff \u{c} \
             unit \u{1f} del \u{7f} é 😀"
                .to_string(),
        ),
        Reject::BadRequest(String::new()),
        Reject::Overloaded { shard: 2 },
        Reject::DeadlineExceeded,
        Reject::BreakerOpen { shard: 0 },
        Reject::Internal("kernel panicked: index out of bounds".to_string()),
        Reject::ShuttingDown,
    ]
}

fn envelopes() -> [(Option<TraceId>, Option<Phases>); 4] {
    [
        (None, None),
        (Some(TraceId(0xabc)), None),
        (None, Some(Phases { queue_us: 5, window_us: 6, kernel_us: 7, total_us: 18 })),
        (
            Some(TraceId(u64::MAX)),
            Some(Phases { queue_us: u64::MAX, window_us: 0, kernel_us: 1_234_567, total_us: 42 }),
        ),
    ]
}

/// Every fixed shape and rejection under all four envelopes, then the
/// random payloads under one envelope each.
fn responses() -> Vec<Response> {
    let ids = [0, 7, 41, u64::MAX];
    let fixed = fixed_results().into_iter().map(Ok).chain(rejects().into_iter().map(Err));
    let mut out = Vec::new();
    for (i, body) in fixed.enumerate() {
        for (trace, phases) in envelopes() {
            out.push(Response { id: ids[i % 4], trace, phases, result: body.clone() });
        }
    }
    let mut rng = SplitMix(0x5eed_0017);
    for (i, body) in random_results(&mut rng).into_iter().enumerate() {
        let (trace, phases) = envelopes()[i % 4];
        out.push(Response { id: ids[i % 4], trace, phases, result: Ok(body) });
    }
    out
}

/// Replaces the measured `"serialize":<digits>` value with `0`.
fn mask_serialize(line: &str) -> String {
    const KEY: &str = "\"serialize\":";
    match line.find(KEY) {
        None => line.to_string(),
        Some(at) => {
            let digits = at + KEY.len();
            let end = line[digits..]
                .find(|c: char| !c.is_ascii_digit())
                .map_or(line.len(), |n| digits + n);
            format!("{}0{}", &line[..digits], &line[end..])
        }
    }
}

#[test]
fn response_lines_match_the_pinned_bytes() {
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let rendered: Vec<String> =
        responses().iter().map(|r| mask_serialize(&r.to_json_line())).collect();
    assert_eq!(rendered.len(), golden.len(), "response count");
    for (i, (got, want)) in rendered.iter().zip(&golden).enumerate() {
        assert_eq!(got, want, "response {i} differs from the pinned bytes");
    }
}

#[test]
fn pinned_lines_are_valid_json() {
    for line in GOLDEN.lines() {
        serde_json::from_str::<serde_json::Value>(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
}
