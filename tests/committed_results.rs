//! The committed `results/` directory is what `repro all --csv results`
//! writes (one JSON report per artifact) plus the stdout of `repro all`
//! (`results/repro_all.txt`). This regenerates both in process, on the
//! default sweep, and fails on the first byte that differs — so the
//! numbers the documents quote from `results/` cannot drift from the code.
//!
//! To refresh after a change that is meant to move outputs:
//!
//! ```sh
//! cargo run --release -p archline-repro --bin repro -- all --csv results > results/repro_all.txt
//! ```

use std::path::Path;

use archline::microbench::SweepConfig;
use archline::repro::{run_artifact, AnalysisContext, ARTIFACTS};

/// First differing line of `want` vs `got`, for a readable failure.
fn first_difference(want: &str, got: &str) -> String {
    let line = want.lines().zip(got.lines()).position(|(w, g)| w != g);
    match line {
        Some(i) => format!(
            "line {}:\n  committed: {}\n  fresh:     {}",
            i + 1,
            want.lines().nth(i).unwrap_or(""),
            got.lines().nth(i).unwrap_or("")
        ),
        None => {
            format!("lengths differ: committed {} bytes, fresh {} bytes", want.len(), got.len())
        }
    }
}

#[test]
fn committed_results_equal_a_fresh_repro_all() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("results/{name}: {e}"))
    };
    let ctx = AnalysisContext::new(SweepConfig::default());
    let mut stdout = String::new();
    let mut stale = Vec::new();
    for &name in ARTIFACTS {
        let (text, json) = run_artifact(name, &ctx, false)
            .unwrap_or_else(|e| panic!("artifact {name} failed: {}", e.message));
        // `repro` prints each artifact with `println!`.
        stdout.push_str(&text);
        stdout.push('\n');
        let file = format!("{name}.json");
        let committed = read(&file);
        if committed != json {
            stale.push(format!("results/{file}: {}", first_difference(&committed, &json)));
        }
    }
    assert!(ctx.failures().is_empty(), "degraded platforms: {:?}", ctx.failures());
    let committed = read("repro_all.txt");
    if committed != stdout {
        stale.push(format!("results/repro_all.txt: {}", first_difference(&committed, &stdout)));
    }
    assert!(stale.is_empty(), "stale committed results:\n{}", stale.join("\n"));
}
