//! File-scoped policy: which pass applies where, and why.
//!
//! Policy is **path-derived**, not configured: the workspace layout is the
//! configuration. Every in-scope decision carries a provenance string that
//! is printed with the finding, so a diagnostic always says which rule of
//! which policy put the file in scope (see `docs/lint.md` for the full
//! policy map and the rationale for each exemption).

/// The lint passes. Order here is report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pass {
    /// Raw `print!`/`println!`/`eprint!`/`eprintln!`/`dbg!` in library code.
    NoRawPrint,
    /// Wall-clock, entropy, and unordered-map constructs in seeded result
    /// paths.
    Determinism,
    /// `unwrap`/`expect`/`panic!`-family/indexing-by-literal in
    /// catch_unwind-clean hot paths.
    PanicDiscipline,
    /// Float `==`/`!=` against non-zero literals; bare `a*b + c` shapes in
    /// kernel files where the `mul_add` discipline applies.
    FloatDiscipline,
    /// `unsafe` without an adjacent `// SAFETY:` justification.
    UnsafeAudit,
    /// `Ordering::…` without an adjacent `// ordering:` justification.
    AtomicsAudit,
    /// Pragma hygiene: malformed/unknown/reason-less/unused
    /// `lint:allow` pragmas. Not waivable (a pragma cannot waive itself).
    Pragma,
}

impl Pass {
    /// All real passes (excludes the pragma-hygiene meta pass).
    pub const ALL: [Pass; 6] = [
        Pass::NoRawPrint,
        Pass::Determinism,
        Pass::PanicDiscipline,
        Pass::FloatDiscipline,
        Pass::UnsafeAudit,
        Pass::AtomicsAudit,
    ];

    /// The stable name used in diagnostics and `lint:allow(...)` pragmas.
    pub fn name(self) -> &'static str {
        match self {
            Pass::NoRawPrint => "no-raw-print",
            Pass::Determinism => "determinism",
            Pass::PanicDiscipline => "panic-discipline",
            Pass::FloatDiscipline => "float-discipline",
            Pass::UnsafeAudit => "unsafe-audit",
            Pass::AtomicsAudit => "atomics-audit",
            Pass::Pragma => "pragma",
        }
    }

    /// Parses a pragma pass name.
    pub fn from_name(name: &str) -> Option<Pass> {
        Pass::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// What the path alone says about a file. Paths are workspace-relative
/// with `/` separators.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Workspace-relative path.
    pub rel: String,
    /// `crates/<name>/…` → `Some(name)`; the root package's `src/` and
    /// `tests/` → `None`.
    pub crate_name: Option<String>,
    /// Binary frontend: owns its stdout, runs once per invocation.
    pub is_bin: bool,
    /// Integration tests / benches / examples: exercised, not shipped.
    pub is_testish: bool,
}

impl FileClass {
    /// Classifies a workspace-relative path (must use `/` separators).
    pub fn classify(rel: &str) -> FileClass {
        let parts: Vec<&str> = rel.split('/').collect();
        let crate_name = match parts.as_slice() {
            ["crates", name, ..] => Some((*name).to_string()),
            _ => None,
        };
        let is_bin = parts.contains(&"bin")
            || parts.contains(&"examples")
            || rel.ends_with("src/main.rs");
        let is_testish = parts.contains(&"tests") || parts.contains(&"benches");
        FileClass { rel: rel.to_string(), crate_name, is_bin, is_testish }
    }

    fn krate(&self) -> &str {
        self.crate_name.as_deref().unwrap_or("")
    }
}

/// Crates whose library code is a seeded result path: model arithmetic,
/// fitting, statistics, platform tables, the simulator, fault injection
/// (seeded by contract), and the repro artifact layer. Wall-clock and
/// entropy anywhere here silently breaks bit-reproducibility.
///
/// Deliberately absent, with rationale (mirrored in `docs/lint.md`):
/// `obs` (monotonic span timing is its job), `microbench` (it *measures*
/// wall time), `powermon` (hardware counter sampling), `serve` (deadline
/// clocks are wall-clock by design), `bench`, `lint`.
const DETERMINISM_CRATES: &[&str] =
    &["core", "stats", "fit", "platforms", "machine", "faults", "repro", "par"];

/// Crates whose non-test code must justify every atomic ordering: the
/// fork-join layer, the observability substrate, and the serving layer are
/// the only places concurrency invariants live.
const ATOMICS_CRATES: &[&str] = &["par", "obs", "serve"];

/// Hot paths that must stay panic-free by construction: the serve shard
/// workers and the par fork-join layer, whose `catch_unwind`
/// isolation is a typed-error contract, not a panic dumping ground.
const PANIC_CRATES: &[&str] = &["serve", "par"];

/// The one raw-print exemption: the obs stderr sink IS the print.
const PRINT_SINK: &str = "crates/obs/src/sink.rs";

/// Kernel files where the `mul_add` discipline applies (module docs of
/// `plan.rs` define the canonical-form / ULP policy).
const FMA_KERNEL_FILES: &[&str] = &["crates/core/src/plan.rs"];

/// Whether `pass` applies to `file`, and the policy provenance if so.
/// Token-level exemptions (test regions, `== 0.0` sentinels) are applied
/// by the passes themselves.
pub fn scope(pass: Pass, file: &FileClass) -> Option<String> {
    match pass {
        Pass::NoRawPrint => {
            if file.is_bin || file.is_testish || file.rel == PRINT_SINK {
                return None;
            }
            // Library sources only: root src/ or crates/*/src/.
            let lib = file.rel.starts_with("src/") || file.rel.contains("/src/");
            lib.then(|| {
                "library code logs through archline-obs; raw prints bypass the level \
                 gate, the JSONL trace, and -q/--verbose"
                    .to_string()
            })
        }
        Pass::Determinism => {
            if file.is_bin || file.is_testish {
                return None;
            }
            let in_scope = DETERMINISM_CRATES.contains(&file.krate())
                || file.rel.starts_with("src/");
            in_scope.then(|| {
                format!(
                    "seeded result path ({}): RNG streams and fits must stay bit-identical \
                     across runs",
                    file.crate_name.as_deref().unwrap_or("root lib")
                )
            })
        }
        Pass::PanicDiscipline => {
            if file.is_bin || file.is_testish {
                return None;
            }
            PANIC_CRATES.contains(&file.krate()).then(|| {
                format!(
                    "catch_unwind-clean hot path (crate {}): panics here are typed-error \
                     contract violations, not isolation fodder",
                    file.krate()
                )
            })
        }
        Pass::FloatDiscipline => {
            if file.is_testish || file.krate() == "stats" {
                return None;
            }
            Some(
                "float equality is exact only for propagated literals; computed values \
                 need approx comparison (stats/tests are approved modules)"
                    .to_string(),
            )
        }
        Pass::UnsafeAudit => Some(
            "every unsafe block/impl carries an adjacent // SAFETY: argument \
             (workspace-wide)"
                .to_string(),
        ),
        Pass::AtomicsAudit => {
            if file.is_testish {
                return None;
            }
            ATOMICS_CRATES.contains(&file.krate()).then(|| {
                format!(
                    "concurrency layer (crate {}): every Ordering choice carries an \
                     adjacent // ordering: justification",
                    file.krate()
                )
            })
        }
        Pass::Pragma => Some("pragma hygiene (everywhere)".to_string()),
    }
}

/// Whether the fma sub-rule of float-discipline applies to this file.
pub fn fma_kernel_file(file: &FileClass) -> bool {
    FMA_KERNEL_FILES.contains(&file.rel.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class(rel: &str) -> FileClass {
        FileClass::classify(rel)
    }

    #[test]
    fn bins_and_tests_are_classified() {
        assert!(class("crates/repro/src/bin/repro.rs").is_bin);
        assert!(class("src/main.rs").is_bin);
        assert!(class("examples/quickstart.rs").is_bin);
        assert!(class("tests/chaos.rs").is_testish);
        assert!(class("crates/lint/tests/fixtures.rs").is_testish);
        let lib = class("crates/core/src/plan.rs");
        assert!(!lib.is_bin && !lib.is_testish);
        assert_eq!(lib.crate_name.as_deref(), Some("core"));
    }

    #[test]
    fn print_policy_exempts_bins_and_the_sink() {
        assert!(scope(Pass::NoRawPrint, &class("crates/fit/src/pipeline.rs")).is_some());
        assert!(scope(Pass::NoRawPrint, &class("crates/obs/src/sink.rs")).is_none());
        assert!(scope(Pass::NoRawPrint, &class("crates/repro/src/bin/repro.rs")).is_none());
        assert!(scope(Pass::NoRawPrint, &class("crates/serve/src/bin/archline-serve.rs")).is_none());
    }

    #[test]
    fn determinism_covers_result_paths_only() {
        assert!(scope(Pass::Determinism, &class("crates/core/src/model.rs")).is_some());
        assert!(scope(Pass::Determinism, &class("src/prelude.rs")).is_some());
        assert!(scope(Pass::Determinism, &class("crates/obs/src/span.rs")).is_none());
        assert!(scope(Pass::Determinism, &class("crates/serve/src/server.rs")).is_none());
        assert!(scope(Pass::Determinism, &class("crates/microbench/src/timer.rs")).is_none());
        assert!(scope(Pass::Determinism, &class("crates/powermon/src/rapl.rs")).is_none());
    }

    #[test]
    fn panic_and_atomics_cover_the_concurrency_layer() {
        assert!(scope(Pass::PanicDiscipline, &class("crates/serve/src/server.rs")).is_some());
        assert!(scope(Pass::PanicDiscipline, &class("crates/par/src/scope.rs")).is_some());
        assert!(scope(Pass::PanicDiscipline, &class("crates/fit/src/pipeline.rs")).is_none());
        assert!(scope(Pass::AtomicsAudit, &class("crates/obs/src/metrics.rs")).is_some());
        assert!(scope(Pass::AtomicsAudit, &class("crates/repro/src/context.rs")).is_none());
    }

    #[test]
    fn float_policy_approves_stats_and_tests() {
        assert!(scope(Pass::FloatDiscipline, &class("crates/repro/src/fig6.rs")).is_some());
        assert!(scope(Pass::FloatDiscipline, &class("crates/stats/src/ks.rs")).is_none());
        assert!(scope(Pass::FloatDiscipline, &class("tests/paper_claims.rs")).is_none());
        assert!(fma_kernel_file(&class("crates/core/src/plan.rs")));
        assert!(!fma_kernel_file(&class("crates/core/src/model.rs")));
    }
}
