//! One benchmark invocation: which fresh-process measurements to make,
//! the invariants across them, and the result line.
//!
//! A measurement is a [`Request`] served by [`serve`] in a child process
//! (the binary re-executes itself), so every timed run pays the
//! process-wide caches a real invocation pays. The orchestration takes
//! the spawner as a parameter, which lets the self-test serve requests
//! in-process on the smoke configurations.

use crate::checks::{GOLDEN_SEED, HELD_OUT_SEED};
use crate::measure::{rep_sample, setup_sample, trace_sample};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::sample::{fingerprint, median, Check, Sample};
use crate::workload::{input_seeds, loaded_config, loaded_outputs, run, Report, Scale, Workload};
use acacia::loaded::LoadedScenario;
use std::fmt::Write as _;
use std::time::Instant;

/// What a child process measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Build and run untraced: end-to-end numbers.
    Rep,
    /// Build and run traced: per-layer numbers.
    Trace,
    /// Build only, on a given shard count.
    Setup,
    /// Run the library's own `LoadedScenario` (reference for the rig).
    ApiLoaded,
}

impl Mode {
    const ALL: [Mode; 4] = [Mode::Rep, Mode::Trace, Mode::Setup, Mode::ApiLoaded];

    fn name(self) -> &'static str {
        match self {
            Mode::Rep => "rep",
            Mode::Trace => "trace",
            Mode::Setup => "setup",
            Mode::ApiLoaded => "api-loaded",
        }
    }
}

/// One fresh-process measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// What to measure.
    pub mode: Mode,
    /// On which workload.
    pub workload: Workload,
    /// With which seed.
    pub seed: u64,
    /// On how many engine shards (only `Setup` varies it).
    pub shards: usize,
    /// At which input size.
    pub scale: Scale,
}

impl Request {
    fn new(mode: Mode, workload: Workload, seed: u64, scale: Scale) -> Request {
        Request {
            mode,
            workload,
            seed,
            shards: workload.shards(),
            scale,
        }
    }

    /// Command-line arguments of the child serving this request. Child
    /// processes run the figure configurations only; the smoke scale is
    /// served in-process by the self-test.
    pub fn args(&self) -> Vec<String> {
        assert_eq!(
            self.scale,
            Scale::Figure,
            "child processes run figure configurations"
        );
        vec![
            "child".to_string(),
            self.mode.name().to_string(),
            self.workload.name().to_string(),
            self.seed.to_string(),
            self.shards.to_string(),
        ]
    }

    /// Parse the arguments after `child`.
    pub fn parse(args: &[String]) -> Result<Request, String> {
        let [mode, workload, seed, shards] = args else {
            return Err("child <mode> <workload> <seed> <shards>".into());
        };
        Ok(Request {
            mode: Mode::ALL
                .into_iter()
                .find(|m| m.name() == mode)
                .ok_or_else(|| format!("unknown mode {mode}"))?,
            workload: Workload::parse(workload)
                .ok_or_else(|| format!("unknown workload {workload}"))?,
            seed: seed.parse().map_err(|_| format!("bad seed {seed}"))?,
            shards: shards
                .parse()
                .map_err(|_| format!("bad shard count {shards}"))?,
            scale: Scale::Figure,
        })
    }
}

/// Serve a request in this process.
pub fn serve(req: &Request) -> Sample {
    match req.mode {
        Mode::Rep | Mode::Trace => {
            let done = run(req.workload, req.scale, req.seed, req.mode == Mode::Trace);
            let mut s = match req.mode {
                Mode::Rep => rep_sample(&done),
                _ => trace_sample(&done),
            };
            if let Report::Loaded(r) = &done.report {
                s.fingerprints
                    .insert("loaded_report".into(), fingerprint(&loaded_outputs(r)));
            }
            s
        }
        Mode::Setup => setup_sample(req.workload, req.scale, req.seed, req.shards),
        Mode::ApiLoaded => {
            let report = LoadedScenario::build(loaded_config(req.scale, req.seed)).run();
            let mut s = Sample::default();
            s.fingerprints.insert(
                "loaded_report".into(),
                fingerprint(&loaded_outputs(&report)),
            );
            s
        }
    }
}

/// How the orchestrator obtains a sample: a child process in the real
/// benchmark, an in-process call in the self-test.
pub type Spawn<'a> = &'a mut dyn FnMut(&Request) -> Result<Sample, String>;

/// Everything one invocation reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every check made, in order.
    pub checks: Vec<Check>,
    /// AR frames requested across every scenario run.
    pub attempted: u64,
    /// Of those, frames that never completed.
    pub failed: u64,
    /// The reported metrics, in catalogue order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Human-readable lines printed before the result.
    pub log: Vec<String>,
}

impl Outcome {
    /// Obtain a sample, folding its checks and frame counts in. A child
    /// that fails becomes a failed check.
    fn take(&mut self, spawn: Spawn<'_>, req: &Request) -> Option<Sample> {
        match spawn(req) {
            Ok(s) => {
                let requested = s.values.get("frames_requested").copied().unwrap_or(0.0) as u64;
                let done = s.values.get("frames_done").copied().unwrap_or(0.0) as u64;
                self.attempted += requested;
                self.failed += requested.saturating_sub(done);
                let tag = format!("{}:{}", req.mode.name(), req.workload.name());
                for c in &s.checks {
                    self.checks.push(Check {
                        name: format!("{tag}:{}", c.name),
                        ..c.clone()
                    });
                }
                if !s.facts.is_empty() {
                    let facts: Vec<String> =
                        s.facts.iter().map(|(k, v)| format!("{k}={v}")).collect();
                    self.log.push(format!("host {tag}: {}", facts.join(" ")));
                }
                Some(s)
            }
            Err(why) => {
                let name = format!("{}:{}:child", req.mode.name(), req.workload.name());
                self.checks.push(Check::new(&name, false, why));
                None
            }
        }
    }

    /// Are the outputs correct: every check passed and every metric is a
    /// finite number?
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok) && self.metrics.iter().all(|(_, v)| v.is_finite())
    }

    /// The result line: one JSON object.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (def, v)) in self.metrics.iter().enumerate() {
            let v = if v.is_finite() { *v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Everything to print: log, checks, then the result line last.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.log {
            let _ = writeln!(out, "{line}");
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok" } else { "FAILED" };
            let _ = writeln!(out, "check {} {verdict}: {}", c.name, c.detail);
        }
        for (def, v) in &self.metrics {
            let _ = writeln!(
                out,
                "metric {} = {v} {} ({})",
                def.name, def.unit, def.about
            );
        }
        let _ = writeln!(out, "{}", self.result_json());
        out
    }
}

/// Do all samples carry the same `key` fingerprint?
fn same(name: &str, key: &str, samples: &[&Sample]) -> Check {
    let fps: Vec<Option<&u64>> = samples.iter().map(|s| s.fingerprints.get(key)).collect();
    let ok = fps.iter().all(|f| f.is_some() && *f == fps[0]);
    let shown: Vec<String> = fps
        .iter()
        .map(|f| f.map_or("missing".into(), |v| format!("{v:016x}")))
        .collect();
    Check::new(name, ok, format!("{key} fingerprints {}", shown.join(" ")))
}

/// Fresh-process setups wanted for the `setup_s` median.
const SETUP_SAMPLES: usize = 5;

/// The untraced measurement (`--trace 0`): whole cycles of fresh-process
/// runs over the workload's inputs (at least one cycle, another while it
/// is expected to end within `seconds`), extra build-only processes for
/// the set-up median, and for `city-sharded` one `city` run of the first
/// input, whose outputs it must equal. Each end-to-end metric is the
/// median over inputs of its median over that input's runs, so every
/// input weighs the same however many cycles the host's speed allows,
/// and the simulated metrics repeat exactly for a given seed.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
    spawn: Spawn<'_>,
) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let inputs = input_seeds(workload, seed);
    // (input index, sample) per run.
    let mut reps: Vec<(usize, Sample)> = Vec::new();
    'cycles: loop {
        for (k, &input) in inputs.iter().enumerate() {
            let Some(s) = out.take(spawn, &Request::new(Mode::Rep, workload, input, scale)) else {
                break 'cycles;
            };
            out.log.push(format!(
                "run {} (input seed {input}): setup_s={:.4} run_s={:.4} peak_rss_mb={:.1} frame_latency p50={:.3} ms p99={:.3} ms over {} frames",
                reps.len() + 1,
                s.get("setup_s"),
                s.get("run_s"),
                s.get("peak_rss_mb"),
                s.get("frame_latency_p50_ms"),
                s.get("frame_latency_p99_ms"),
                s.get("frame_samples"),
            ));
            if workload == Workload::Loaded {
                out.log.push(format!(
                    "run {}: mec_rtt_p99={:.3} ms cloud_rtt_p99={:.3} ms",
                    reps.len() + 1,
                    s.get("mec_rtt_p99_ms"),
                    s.get("cloud_rtt_p99_ms"),
                ));
            }
            reps.push((k, s));
        }
        let elapsed = start.elapsed().as_secs_f64();
        let cycles = (reps.len() / inputs.len()) as f64;
        if elapsed + elapsed / cycles > seconds {
            break;
        }
    }
    let mut setups: Vec<f64> = reps.iter().map(|(_, s)| s.get("setup_s")).collect();
    // Build-only processes for the set-up median, while the next one is
    // expected to end within a quarter of the measuring time.
    let extra = Instant::now();
    while setups.len() < SETUP_SAMPLES
        && extra.elapsed().as_secs_f64() + median(&setups) < seconds / 4.0
    {
        let k = setups.len() % inputs.len();
        match out.take(
            spawn,
            &Request::new(Mode::Setup, workload, inputs[k], scale),
        ) {
            Some(s) => setups.push(s.get("setup_s")),
            None => break,
        }
    }
    for (k, &input) in inputs.iter().enumerate() {
        let same_input: Vec<&Sample> = reps
            .iter()
            .filter(|(i, _)| *i == k)
            .map(|(_, s)| s)
            .collect();
        if same_input.len() > 1 {
            out.checks.push(same(
                &format!("input{input}_repeats_exactly"),
                "outputs",
                &same_input,
            ));
        }
    }
    if workload == Workload::CitySharded {
        let city = Request::new(Mode::Rep, Workload::City, inputs[0], scale);
        if let (Some(reference), Some((_, first))) = (out.take(spawn, &city), reps.first()) {
            out.checks
                .push(same("sharded_equals_city", "outputs", &[first, &reference]));
        }
    }
    out.log.push(format!(
        "{} fresh-process runs over {} inputs, {} set-ups, {:.1} s",
        reps.len(),
        inputs.len(),
        setups.len(),
        start.elapsed().as_secs_f64()
    ));
    out.metrics = END_TO_END
        .iter()
        .map(|def| {
            let v = if def.name == "setup_s" {
                median(&setups)
            } else {
                let per_input: Vec<f64> = (0..inputs.len())
                    .map(|k| {
                        let runs: Vec<f64> = reps
                            .iter()
                            .filter(|(i, _)| *i == k)
                            .map(|(_, s)| s.get(def.name))
                            .collect();
                        median(&runs)
                    })
                    .collect();
                median(&per_input)
            };
            (*def, v)
        })
        .collect();
    out
}

/// The traced measurement (`--trace 1`): an untraced run and a traced
/// run of the same input in fresh processes (whose outputs must agree),
/// a build of the same input on the other shard count, and for `loaded`
/// the library's own scenario as a reference for the rig. Reports every
/// per-layer metric, and the untraced sample for callers comparing
/// workloads.
pub fn trace(
    workload: Workload,
    seed: u64,
    scale: Scale,
    spawn: Spawn<'_>,
) -> (Outcome, Option<Sample>) {
    let mut out = Outcome::default();
    let untraced = out.take(spawn, &Request::new(Mode::Rep, workload, seed, scale));
    let traced = out.take(spawn, &Request::new(Mode::Trace, workload, seed, scale));
    let other_shards = if workload.shards() == 1 { 2 } else { 1 };
    let other = out.take(
        spawn,
        &Request {
            shards: other_shards,
            ..Request::new(Mode::Setup, workload, seed, scale)
        },
    );
    let (Some(untraced), Some(traced)) = (untraced, traced) else {
        out.metrics = PER_LAYER.iter().map(|d| (*d, f64::NAN)).collect();
        return (out, None);
    };
    out.checks.push(same(
        "traced_equals_untraced",
        "outputs",
        &[&traced, &untraced],
    ));
    if workload == Workload::Loaded {
        if let Some(api) = out.take(spawn, &Request::new(Mode::ApiLoaded, workload, seed, scale)) {
            out.checks.push(same(
                "rig_equals_loaded_scenario",
                "loaded_report",
                &[&untraced, &api],
            ));
        }
    }
    let mut values = traced.values.clone();
    let other_setup = other.map_or(f64::NAN, |s| s.get("setup_s"));
    let (one, two) = if workload.shards() == 1 {
        (untraced.get("setup_s"), other_setup)
    } else {
        (other_setup, untraced.get("setup_s"))
    };
    values.insert("simnet.sharded_build_overhead_s".into(), two - one);
    values.insert(
        "trace.overhead_s".into(),
        traced.get("core.run_s") - untraced.get("run_s"),
    );
    out.log.push(format!(
        "run_s={:.4} (untraced) core.run_s={:.4} (traced); kernel sum vision+lte.wire+core.msg+core.poll={:.4} s beside core.run_s={:.4} s",
        untraced.get("run_s"),
        traced.get("core.run_s"),
        traced.get("kernel_sum_s"),
        traced.get("core.run_s"),
    ));
    out.log
        .push(format!("setup_s at 1 shard={one:.4} at 2 shards={two:.4}"));
    out.metrics = PER_LAYER
        .iter()
        .map(|def| (*def, values.get(def.name).copied().unwrap_or(f64::NAN)))
        .collect();
    (out, Some(untraced))
}

/// The held-out check (`--verify`): at seed 42 and at the held-out seed,
/// the traced measurement of every workload (its own checks plus traced
/// versus untraced), and `city-sharded` against `city`.
pub fn verify(scale: Scale, spawn: Spawn<'_>) -> Outcome {
    let mut out = Outcome::default();
    for seed in [GOLDEN_SEED, HELD_OUT_SEED] {
        let mut untraced = Vec::new();
        for w in Workload::ALL {
            let (o, u) = trace(w, seed, scale, spawn);
            out.attempted += o.attempted;
            out.failed += o.failed;
            out.log.extend(
                o.log
                    .into_iter()
                    .map(|l| format!("seed {seed} {}: {l}", w.name())),
            );
            out.checks.extend(o.checks.into_iter().map(|c| Check {
                name: format!("seed{seed}:{}", c.name),
                ..c
            }));
            untraced.push(u);
        }
        if let (Some(Some(city)), Some(Some(sharded))) = (untraced.first(), untraced.get(1)) {
            out.checks.push(same(
                &format!("seed{seed}:sharded_equals_city"),
                "outputs",
                &[sharded, city],
            ));
        }
    }
    out
}
