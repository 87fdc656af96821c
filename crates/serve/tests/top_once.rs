//! `archline-top --once` against a live `archline-serve`: after real
//! traffic the phase grid must show measured quantiles, not `-` placeholders.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kills the server if the test fails before shutting it down.
struct Serve(Child);

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn free_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind");
    l.local_addr().expect("addr").to_string()
}

fn connect(addr: &str) -> TcpStream {
    let start = Instant::now();
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(_) if start.elapsed() < Duration::from_secs(20) => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("archline-serve never listened on {addr}: {e}"),
        }
    }
}

#[test]
fn once_shows_phase_quantiles_after_traffic() {
    let addr = free_addr();
    let _server = Serve(
        Command::new(env!("CARGO_BIN_EXE_archline-serve"))
            .args(["--addr", &addr, "--allow-shutdown", "-q"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn archline-serve"),
    );

    let stream = connect(&addr);
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    for id in 1..=16u64 {
        writeln!(
            writer,
            r#"{{"id":{id},"platform":"GTX Titan","query":{{"kind":"eval","flops":[1e9,2e9],"bytes":[1e8,{id}e7]}}}}"#
        )
        .unwrap();
    }
    writer.flush().unwrap();
    for _ in 0..16 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains(r#""ok":true"#), "eval failed: {line}");
    }

    let out = Command::new(env!("CARGO_BIN_EXE_archline-top"))
        .args(["--addr", &addr, "--once"])
        .output()
        .expect("run archline-top");
    assert!(out.status.success(), "archline-top failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();

    // Phase rows: `<phase> <eval p50> <eval p99> <sweep ..> <crossover ..>`.
    let total = text
        .lines()
        .find(|l| l.starts_with("total "))
        .unwrap_or_else(|| panic!("no total phase row:\n{text}"));
    let eval_p50 = total.split_whitespace().nth(1).unwrap();
    assert!(
        eval_p50.trim_end_matches("us").trim_end_matches("ms").parse::<f64>().is_ok(),
        "eval total p50 is not numeric: {total:?}\n{text}"
    );
    let kernel = text.lines().find(|l| l.starts_with("kernel ")).unwrap();
    assert_ne!(kernel.split_whitespace().nth(1), Some("-"), "{text}");

    writeln!(writer, r#"{{"op":"shutdown"}}"#).unwrap();
    writer.flush().unwrap();
}
