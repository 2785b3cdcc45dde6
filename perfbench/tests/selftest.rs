//! Self-test of the benchmark on the smoke configurations
//! (`CityConfig::smoke()`, `LoadedConfig::smoke(4, 160)`): every metric
//! is produced and finite, every check passes on honest inputs, and every
//! check path fails when its input is falsified.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.
//! Requests are served in-process; the engine's default shard count is
//! process-wide, so the tests take turns.

use acacia_perfbench::checks::{city_golden, city_recorded, recorded_city, CityColumns};
use acacia_perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use acacia_perfbench::orchestrate::{measure, serve, trace, verify, Mode, Outcome, Request};
use acacia_perfbench::sample::Sample;
use acacia_perfbench::workload::{run, Report, Scale, Workload};
use serde::Value;
use std::sync::Mutex;

static ENGINE: Mutex<()> = Mutex::new(());

fn in_process(req: &Request) -> Result<Sample, String> {
    Ok(serve(req))
}

fn failures(out: &Outcome) -> Vec<String> {
    out.checks
        .iter()
        .filter(|c| !c.ok)
        .map(|c| format!("{}: {}", c.name, c.detail))
        .collect()
}

fn names(defs: &[MetricDef]) -> Vec<&'static str> {
    defs.iter().map(|d| d.name).collect()
}

fn value(out: &Outcome, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|(d, _)| d.name == name)
        .map(|&(_, v)| v)
        .unwrap_or_else(|| panic!("{name} not reported"))
}

#[test]
fn every_metric_and_check_on_every_workload() {
    let _turn = ENGINE.lock().unwrap_or_else(|e| e.into_inner());
    for w in Workload::ALL {
        let e2e = measure(w, 42, 0.0, Scale::Smoke, &mut in_process);
        assert!(e2e.correct(), "{}: {:?}", w.name(), failures(&e2e));
        let reported: Vec<_> = e2e.metrics.iter().map(|(d, _)| d.name).collect();
        assert_eq!(reported, names(END_TO_END));
        for (d, v) in &e2e.metrics {
            assert!(v.is_finite() && *v > 0.0, "{} {}: {v}", w.name(), d.name);
        }
        assert!(e2e.attempted > 0 && e2e.failed == 0);
        let json = e2e.result_json();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );

        let (layers, _) = trace(w, 42, Scale::Smoke, &mut in_process);
        assert!(layers.correct(), "{}: {:?}", w.name(), failures(&layers));
        let reported: Vec<_> = layers.metrics.iter().map(|(d, _)| d.name).collect();
        assert_eq!(reported, names(PER_LAYER));
        for (d, v) in &layers.metrics {
            assert!(v.is_finite(), "{} {}: {v}", w.name(), d.name);
        }
        for kernel in ["vision.share", "lte.wire.share", "core.msg.share"] {
            assert!(value(&layers, kernel) > 0.0, "{} {kernel}", w.name());
        }
        assert!(value(&layers, "simnet.events_per_s") > 0.0);
        match w {
            Workload::City => {
                assert!(value(&layers, "core.reanchors_scheduled") > 0.0);
                assert_eq!(value(&layers, "simnet.cross_shard_sent"), 0.0);
            }
            Workload::CitySharded => {
                assert!(value(&layers, "simnet.cross_shard_sent") > 0.0);
                assert!(value(&layers, "simnet.shard_imbalance") >= 1.0);
            }
            Workload::Loaded => {
                assert!(value(&layers, "simnet.link.core_drops_queue") > 0.0);
            }
        }
    }
}

#[test]
fn simulated_metrics_do_not_depend_on_the_cycle_count() {
    let _turn = ENGINE.lock().unwrap_or_else(|e| e.into_inner());
    let t = std::time::Instant::now();
    let once = measure(Workload::City, 7, 0.0, Scale::Smoke, &mut in_process);
    let seconds = 4.0 * t.elapsed().as_secs_f64();
    let more = measure(Workload::City, 7, seconds, Scale::Smoke, &mut in_process);
    assert!(once.correct() && more.correct(), "{:?}", failures(&more));
    // Whole cycles only, and more than one in the longer measurement.
    assert_eq!(more.attempted % once.attempted, 0);
    assert!(more.attempted >= 2 * once.attempted);
    for name in ["frame_latency_p50_ms", "frame_latency_p99_ms"] {
        assert_eq!(value(&once, name), value(&more, name), "{name}");
    }
}

#[test]
fn held_out_seed_passes_every_invariant() {
    let _turn = ENGINE.lock().unwrap_or_else(|e| e.into_inner());
    let out = verify(Scale::Smoke, &mut in_process);
    assert!(out.correct(), "{:?}", failures(&out));
    for name in [
        "seed42:sharded_equals_city",
        "seed20161212:sharded_equals_city",
    ] {
        assert!(out.checks.iter().any(|c| c.name == name), "{name} missing");
    }
}

#[test]
fn falsified_outputs_fail_their_checks() {
    let _turn = ENGINE.lock().unwrap_or_else(|e| e.into_inner());

    // Recorded columns: the honest report matches its own columns, a
    // report one message off does not, and the smoke city is not the
    // recorded figure city.
    let done = run(Workload::City, Scale::Smoke, 42, false);
    let Report::City(report) = &done.report else {
        panic!("city runs report a city");
    };
    let own = CityColumns::of(report);
    assert!(city_golden(report, &own).ok);
    let off = CityColumns {
        x2_msgs: own.x2_msgs + 1,
        ..own
    };
    assert!(!city_golden(report, &off).ok);
    let recorded = recorded_city().expect("BENCH_city.json has a shards:1 cell");
    assert_eq!(recorded.ue_count, 2048);
    assert_eq!(recorded.sim_elapsed_ms, 154_300);
    assert!(!city_golden(report, &recorded).ok);
    assert!(!city_recorded(report).ok);

    // A sharded run whose reference city disagrees.
    let mut forged_city = |req: &Request| {
        let mut s = serve(req);
        if req.mode == Mode::Rep && req.workload == Workload::City {
            *s.fingerprints.get_mut("outputs").expect("reps fingerprint") ^= 1;
        }
        Ok(s)
    };
    let out = measure(
        Workload::CitySharded,
        42,
        0.0,
        Scale::Smoke,
        &mut forged_city,
    );
    assert_eq!(failures(&out).len(), 1, "{:?}", failures(&out));
    assert!(!out.correct());
    assert!(out.result_json().starts_with("{\"correct\": false"));

    // A traced run that drifted from the untraced one, a rig that drifted
    // from `LoadedScenario`, and a child that died.
    let mut forged = |req: &Request| {
        let mut s = serve(req);
        match req.mode {
            Mode::Trace => *s.fingerprints.get_mut("outputs").expect("fingerprinted") ^= 1,
            Mode::ApiLoaded => *s.fingerprints.get_mut("loaded_report").expect("fp") ^= 1,
            Mode::Setup => return Err("killed".to_string()),
            Mode::Rep => {}
        }
        Ok(s)
    };
    let (out, _) = trace(Workload::Loaded, 42, Scale::Smoke, &mut forged);
    let failed: Vec<_> = out
        .checks
        .iter()
        .filter(|c| !c.ok)
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(
        failed,
        [
            "setup:loaded:child",
            "traced_equals_untraced",
            "rig_equals_loaded_scenario"
        ]
    );
    assert!(!value(&out, "simnet.sharded_build_overhead_s").is_finite());
    assert!(out.result_json().starts_with("{\"correct\": false"));

    // Sessions that lost frames count as failed operations, and a check
    // a child failed is carried into the outcome.
    let mut lossy = |req: &Request| {
        let mut s = serve(req);
        s.set("frames_done", s.get("frames_requested") - 3.0);
        s.checks[0].ok = false;
        Ok(s)
    };
    let out = measure(Workload::City, 42, 0.0, Scale::Smoke, &mut lossy);
    assert_eq!(out.failed, 3 * Workload::City.inputs() as u64);
    assert!(!out.correct());
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = serde_json::parse_value(text.as_bytes()).expect("valid JSON");
    let field = |v: &Value, key: &str| -> Value {
        let Value::Obj(fields) = v else {
            panic!("{key}: not an object");
        };
        serde::find_field(fields, key)
            .cloned()
            .unwrap_or(Value::Null)
    };
    let text_of = |v: Value| match v {
        Value::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    };
    let list = |key: &str| match field(&doc, key) {
        Value::Arr(items) => items,
        other => panic!("{key}: {other:?}"),
    };
    let workloads: Vec<String> = list("workloads")
        .iter()
        .map(|w| text_of(field(w, "name")))
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(String, String, String)> = list(key)
            .iter()
            .map(|m| {
                (
                    text_of(field(m, "name")),
                    text_of(field(m, "unit")),
                    text_of(field(m, "better")),
                )
            })
            .collect();
        let catalogue: Vec<(String, String, String)> = defs
            .iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
            .collect();
        assert_eq!(listed, catalogue, "{key}");
    }
}
