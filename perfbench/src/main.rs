//! `acacia-perfbench` — the benchmark's command line.
//!
//! ```text
//! acacia-perfbench --workload <city|city-sharded|loaded> --seed <n> --seconds <s> --trace <0|1>
//! acacia-perfbench --verify          checks and invariants at seed 42 and the held-out seed
//! acacia-perfbench child <mode> ...  one fresh-process measurement (spawned by the above)
//! ```
//!
//! Every mode runs the figure configurations. The last line of standard
//! output is the result: one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

use acacia_perfbench::orchestrate::{measure, serve, trace, verify, Request};
use acacia_perfbench::sample::Sample;
use acacia_perfbench::workload::{Scale, Workload};
use std::process::{Command, ExitCode};

/// Serve `req` in a fresh copy of this executable and wait for it.
fn spawn_child(req: &Request) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .args(req.args())
        .output()
        .map_err(|e| format!("spawn {:?}: {e}", req.args()))?;
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        let tail: Vec<&str> = err.lines().rev().take(5).collect();
        return Err(format!(
            "{:?} exited with {}: {}",
            req.args(),
            out.status,
            tail.join(" | ")
        ));
    }
    Sample::parse(&String::from_utf8_lossy(&out.stdout))
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn usage(why: &str) -> ExitCode {
    eprintln!("{why}");
    eprintln!(
        "usage: acacia-perfbench --workload <city|city-sharded|loaded> --seed <n> --seconds <s> --trace <0|1>\n       acacia-perfbench --verify"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("child") {
        return match Request::parse(&args[1..]) {
            Ok(req) => {
                print!("{}", serve(&req).emit());
                ExitCode::SUCCESS
            }
            Err(why) => usage(&why),
        };
    }
    let mut spawn = spawn_child;
    if args.iter().any(|a| a == "--verify") {
        let out = verify(Scale::Figure, &mut spawn);
        print!("{}", out.render());
        return if out.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(workload) = flag(&args, "--workload").and_then(Workload::parse) else {
        return usage("--workload must name a workload");
    };
    let seed = match flag(&args, "--seed").map(str::parse::<u64>) {
        None => 42,
        Some(Ok(s)) => s,
        Some(Err(_)) => return usage("--seed must be a whole number"),
    };
    let seconds = match flag(&args, "--seconds").map(str::parse::<f64>) {
        None => 20.0,
        Some(Ok(s)) if s > 0.0 => s,
        Some(_) => return usage("--seconds must be a positive number"),
    };
    let out = match flag(&args, "--trace") {
        None | Some("0") => measure(workload, seed, seconds, Scale::Figure, &mut spawn),
        Some("1") => trace(workload, seed, Scale::Figure, &mut spawn).0,
        Some(_) => return usage("--trace must be 0 or 1"),
    };
    print!("{}", out.render());
    ExitCode::SUCCESS
}
