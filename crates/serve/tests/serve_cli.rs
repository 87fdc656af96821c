//! The `archline-serve` command line: flags alone configure the binary.
//!
//! * A bad or removed flag is a usage error (exit 2) before the binary
//!   binds its address.
//! * The environment does not configure the engine: a server started with
//!   `ARCHLINE_SERVE_DEADLINE_MS=0` in its environment keeps the default
//!   deadline and answers an eval.
//!
//! Every child is bounded: it is polled with `try_wait` and killed after
//! [`CHILD_LIMIT`], so a binary that accepts a bad flag and starts serving
//! fails the test instead of hanging it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Longest any child may run before it is killed.
const CHILD_LIMIT: Duration = Duration::from_secs(10);

/// Polls `child` until it exits or [`CHILD_LIMIT`] passes; kills it on
/// timeout and returns `None`.
fn wait_bounded(child: &mut Child) -> Option<ExitStatus> {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("poll archline-serve") {
            return Some(status);
        }
        if start.elapsed() > CHILD_LIMIT {
            let _ = child.kill();
            let _ = child.wait();
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Kills the server if the test fails before it exits on its own.
struct Serve(Child);

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn serve_command(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_archline-serve"));
    cmd.args(["--addr", "127.0.0.1:0"])
        .args(args)
        .env("ARCHLINE_LOG", "info")
        .env_remove("ARCHLINE_TRACE")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    cmd
}

#[test]
fn bad_and_removed_flags_exit_2_before_binding() {
    let cases: [&[&str]; 6] = [
        &["--flight-recorder", "x.jsonl"],
        &["--max-batch", "4"],
        &["--deadline-ms", "0"],
        &["--shards", "0"],
        &["--metrics", "maybe"],
        &["--bogus"],
    ];
    for args in cases {
        let mut child = serve_command(args).spawn().expect("spawn archline-serve");
        let status = wait_bounded(&mut child);
        let mut stderr = String::new();
        child.stderr.take().expect("piped stderr").read_to_string(&mut stderr).unwrap();
        let status = status.unwrap_or_else(|| {
            panic!("{args:?}: still running after {CHILD_LIMIT:?}; stderr:\n{stderr}")
        });
        assert_eq!(status.code(), Some(2), "{args:?}: want a usage error; stderr:\n{stderr}");
        assert!(stderr.contains("usage: archline-serve"), "{args:?}: no usage line:\n{stderr}");
        assert!(!stderr.contains("listening on"), "{args:?}: bound before failing:\n{stderr}");
    }
}

#[test]
fn environment_does_not_configure_the_server() {
    let mut child = serve_command(&["--allow-shutdown"])
        .env("ARCHLINE_SERVE_DEADLINE_MS", "0")
        .spawn()
        .expect("spawn archline-serve");
    // Drain stderr on a thread (so the child never blocks on a full pipe)
    // and hand each line over, to find the bound address.
    let stderr = child.stderr.take().expect("piped stderr");
    let mut server = Serve(child);
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let start = Instant::now();
    let addr = loop {
        let left = CHILD_LIMIT.saturating_sub(start.elapsed());
        let line = rx
            .recv_timeout(left)
            .unwrap_or_else(|e| panic!("archline-serve never reported listening: {e}"));
        if let Some((_, addr)) = line.split_once("listening on ") {
            break addr.trim().to_string();
        }
    };

    let stream = TcpStream::connect(&addr).expect("connect");
    stream.set_read_timeout(Some(CHILD_LIMIT)).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writeln!(
        writer,
        r#"{{"id":1,"platform":"GTX Titan","query":{{"kind":"eval","flops":[1e9],"bytes":[1e8]}}}}"#
    )
    .unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).expect("read the eval answer");
    assert!(line.contains(r#""ok":true"#), "eval failed: {line}");

    writeln!(writer, r#"{{"op":"shutdown"}}"#).unwrap();
    let status = wait_bounded(&mut server.0)
        .unwrap_or_else(|| panic!("archline-serve did not stop within {CHILD_LIMIT:?}"));
    assert!(status.success(), "archline-serve exited with {status}");
}
