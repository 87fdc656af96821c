//! Where a run happened: machine and source revision, recorded with every
//! result so a number can be traced to what produced it.

use std::path::Path;
use std::process::Command;

use serde_json::{Map, Value};

/// Logical CPUs the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The CPU model string, when the platform exposes one.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `(revision, dirty)` of the git checkout in the working directory, read
/// only from `./.git` so nothing outside the checkout is consulted.
/// `("none", false)` outside a git checkout.
pub fn git_state() -> (String, Option<bool>) {
    let git = Path::new(".git");
    if !git.is_dir() {
        return ("none".to_string(), None);
    }
    let rev = std::fs::read_to_string(git.join("HEAD"))
        .ok()
        .and_then(|head| {
            let head = head.trim();
            match head.strip_prefix("ref: ") {
                Some(r) => std::fs::read_to_string(git.join(r.trim()))
                    .ok()
                    .or_else(|| {
                        // Packed refs: `<sha> <refname>` lines.
                        std::fs::read_to_string(git.join("packed-refs"))
                            .ok()
                            .and_then(|p| {
                                p.lines()
                                    .find(|l| l.ends_with(r.trim()))
                                    .and_then(|l| l.split_whitespace().next())
                                    .map(str::to_string)
                            })
                    }),
                None => Some(head.to_string()),
            }
        })
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let dirty = Command::new("git")
        .args([
            "--git-dir=.git",
            "--work-tree=.",
            "status",
            "--porcelain",
            "--untracked-files=no",
        ])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| !o.stdout.is_empty());
    (rev, dirty)
}

/// The provenance object of the detail line.
pub fn record(workload: &str, seed: u64, traced: bool, smoke: bool, seconds: f64) -> Value {
    let (rev, dirty) = git_state();
    let mut p = Map::new();
    p.insert("nproc".to_string(), Value::from(nproc()));
    p.insert(
        "par_workers".to_string(),
        Value::from(archline_par::num_threads()),
    );
    p.insert("cpu_model".to_string(), Value::from(cpu_model()));
    p.insert("git_rev".to_string(), Value::from(rev));
    p.insert(
        "git_dirty".to_string(),
        dirty.map_or(Value::Null, Value::from),
    );
    p.insert("workload".to_string(), Value::from(workload));
    p.insert("seed".to_string(), Value::from(seed));
    p.insert("traced".to_string(), Value::from(traced));
    p.insert("smoke".to_string(), Value::from(smoke));
    p.insert("seconds".to_string(), Value::from(seconds));
    Value::Object(p)
}
