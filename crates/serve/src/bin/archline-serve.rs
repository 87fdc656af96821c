//! archline-serve — roofline-as-a-service over NDJSON TCP.
//!
//! ```text
//! archline-serve [--addr HOST:PORT] [--shards N] [--queue-bound N]
//!                [--deadline-ms N] [--metrics on|off]
//!                [--inject 'PLATFORM:CLASS:SEVERITY[:SEED]']...
//!                [--allow-shutdown] [-q] [-v[v]] [--trace-out PATH]
//! ```
//!
//! One JSON object per line in both directions; see `docs/serve.md` for
//! the grammar, the typed rejection vocabulary, and the degradation
//! semantics (shedding, deadlines, circuit breakers).
//!
//! `--inject` is chaos mode: the named platform's evaluation results are
//! routed through the archline-faults corruption pipeline (audited in the
//! trace at site `serve`) before result verification, so typed
//! rejections and breaker trips can be exercised against a live server.
//!
//! Exit codes: 0 clean shutdown, 1 fatal startup error (bind/spawn),
//! 2 usage.

use std::net::TcpListener;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use archline_faults::{FaultPlan, FaultSpec};
use archline_obs as obs;
use archline_platforms::all_platforms;
use archline_serve::tcp::serve_tcp;
use archline_serve::{ServeConfig, Server};

const EXIT_FATAL: i32 = 1;
const EXIT_USAGE: i32 = 2;

fn usage(error: &str) -> ! {
    if !error.is_empty() {
        eprintln!("archline-serve: {error}");
    }
    eprintln!(
        "usage: archline-serve [--addr HOST:PORT] [--shards N] [--queue-bound N] \
         [--deadline-ms N] [--metrics on|off] \
         [--inject 'PLATFORM:CLASS:SEVERITY[:SEED]'] [--allow-shutdown] \
         [-q] [-v[v]] [--trace-out PATH]"
    );
    obs::flush();
    std::process::exit(EXIT_USAGE);
}

/// Parses one `--inject` value: `PLATFORM:CLASS:SEVERITY[:SEED]`.
fn parse_inject(value: &str) -> Result<(String, FaultSpec), String> {
    let (platform, spec) = value
        .split_once(':')
        .ok_or_else(|| format!("--inject `{value}`: expected PLATFORM:CLASS:SEVERITY[:SEED]"))?;
    let known = all_platforms();
    if !known.iter().any(|p| p.name == platform) {
        return Err(format!(
            "--inject: unknown platform `{platform}` (one of: {})",
            known.iter().map(|p| p.name.as_str()).collect::<Vec<_>>().join(", ")
        ));
    }
    let spec = FaultSpec::parse(spec).map_err(|e| format!("--inject: {e}"))?;
    Ok((platform.to_string(), spec))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut config = ServeConfig::default();
    let mut injections: Vec<(String, FaultSpec)> = Vec::new();
    let mut allow_shutdown = false;
    let mut quiet = false;
    let mut verbose: u8 = 0;
    let mut trace_out: Option<String> = None;

    fn next_usize(it: &mut std::slice::Iter<String>, flag: &str) -> usize {
        match it.next().map(|v| v.parse::<usize>()) {
            Some(Ok(n)) if n > 0 => n,
            _ => usage(&format!("{flag} needs a positive integer")),
        }
    }

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = v.clone(),
                None => usage("--addr needs HOST:PORT"),
            },
            "--shards" => config.shards = next_usize(&mut it, "--shards"),
            "--queue-bound" => config.queue_bound = next_usize(&mut it, "--queue-bound"),
            "--deadline-ms" => {
                config.deadline = Duration::from_millis(next_usize(&mut it, "--deadline-ms") as u64)
            }
            "--metrics" => match it.next().map(|v| v.trim().to_ascii_lowercase()).as_deref() {
                Some("on" | "1" | "true") => config.telemetry = true,
                Some("off" | "0" | "false") => config.telemetry = false,
                _ => usage("--metrics needs `on` or `off`"),
            },
            "--inject" => match it.next() {
                Some(value) => match parse_inject(value) {
                    Ok(inj) => injections.push(inj),
                    Err(e) => usage(&e),
                },
                None => usage("--inject needs PLATFORM:CLASS:SEVERITY[:SEED]"),
            },
            "--allow-shutdown" => allow_shutdown = true,
            "-q" | "--quiet" => quiet = true,
            "-v" | "--verbose" => verbose += 1,
            "-vv" => verbose += 2,
            "--trace-out" => match it.next() {
                Some(path) => trace_out = Some(path.clone()),
                None => usage("--trace-out needs a path"),
            },
            other => usage(&format!("unknown argument `{other}`")),
        }
    }

    // Observability setup mirrors the repro bin: Info on stderr, the
    // environment (ARCHLINE_LOG / ARCHLINE_TRACE) next, explicit flags win.
    obs::set_stderr_level(Some(obs::Level::Info));
    if let Err(e) = obs::init_from_env() {
        usage(&e);
    }
    if quiet {
        obs::set_stderr_level(Some(obs::Level::Error));
    } else if verbose >= 2 {
        obs::set_stderr_level(Some(obs::Level::Trace));
    } else if verbose == 1 {
        obs::set_stderr_level(Some(obs::Level::Debug));
    }
    if let Some(path) = &trace_out {
        match obs::JsonlSink::file(path) {
            Ok(sink) => {
                obs::install_sink(std::sync::Arc::new(sink));
            }
            Err(e) => usage(&format!("--trace-out: cannot open `{path}`: {e}")),
        }
    }

    // Fold repeated --inject specs into one ordered plan per platform.
    for (platform, spec) in injections {
        match config.inject.iter_mut().find(|(name, _)| *name == platform) {
            Some((_, plan)) => plan.specs.push(spec),
            None => config.inject.push((platform, FaultPlan::new(vec![spec]))),
        }
    }
    if !config.inject.is_empty() {
        obs::warn!(
            "serve",
            "serve: CHAOS MODE — {} platform(s) sabotaged; answers on those \
             platforms will degrade by design",
            config.inject.len()
        );
    }

    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            obs::error!("serve", "serve: cannot bind {addr}: {e}");
            obs::flush();
            std::process::exit(EXIT_FATAL);
        }
    };

    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => usage(&e),
    };

    let stop = Arc::new(AtomicBool::new(false));
    let result = serve_tcp(listener, server.handle(), allow_shutdown, Arc::clone(&stop));
    let handle = server.shutdown();
    let stats = handle.stats();
    // ordering: Relaxed — post-shutdown statistics reads: the worker joins
    // in `shutdown()` already happened-before this point.
    let accepted = stats.accepted.load(std::sync::atomic::Ordering::Relaxed);
    let completed = stats.completed.load(std::sync::atomic::Ordering::Relaxed);
    let shed = stats.shed.load(std::sync::atomic::Ordering::Relaxed);
    let failed = stats.failed.load(std::sync::atomic::Ordering::Relaxed);
    obs::info!(
        "serve",
        "serve: done (accepted {accepted}, completed {completed}, shed {shed}, failed {failed})",
    );
    obs::flush();
    if let Err(e) = result {
        obs::error!("serve", "serve: accept loop failed: {e}");
        std::process::exit(EXIT_FATAL);
    }
}
