//! Turning a finished run into a [`Sample`]: the untraced end-to-end
//! numbers, or the traced per-layer breakdown.

use crate::checks::{city_recorded, GOLDEN_SEED};
use crate::kernels;
use crate::sample::{percentile, Check, Sample};
use crate::workload::{Done, Report, Scale, Workload};
use acacia_lte::entities::GwControl;
use acacia_lte::ue::Ue;
use acacia_lte::wire::Protocol;
use acacia_simnet::sim::Simulator;
use std::time::Duration;

/// Host seconds each kernel is timed for in a traced run.
const KERNEL_BUDGET: Duration = Duration::from_millis(300);

/// Peak resident set of this process (VmHWM), MiB; NaN where the kernel
/// does not report it.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Cores available to the process.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Which engine driver ran: one shard drains straight; several shards use
/// the threaded window driver when the pool spawned workers, and the
/// serial windowed driver on a one-core host.
fn engine_driver(sim: &Simulator) -> &'static str {
    if sim.shards() == 1 {
        "serial"
    } else if sim.pool_workers() > 0 {
        "threaded"
    } else if nproc() < 2 {
        "serial-windowed"
    } else {
        "single-lane"
    }
}

/// Host facts recorded beside every result.
fn record_host(sample: &mut Sample, sim: &Simulator) {
    sample.facts.insert("nproc".into(), nproc().to_string());
    sample
        .facts
        .insert("shards".into(), sim.shards().to_string());
    sample
        .facts
        .insert("driver".into(), engine_driver(sim).to_string());
}

/// Checks every run makes on its own outputs.
fn own_checks(done: &Done) -> Vec<Check> {
    let sim = &done.built.net().sim;
    let mut checks = vec![
        Check::equal(
            "frames_complete",
            done.frames_done(),
            done.frames_requested(),
        ),
        Check::equal(
            "cross_shard_conserved",
            sim.cross_shard_received(),
            sim.cross_shard_sent(),
        ),
    ];
    if let Report::City(r) = &done.report {
        if done.seed == GOLDEN_SEED && done.scale == Scale::Figure {
            checks.push(city_recorded(r));
        }
    }
    checks
}

/// The untraced sample: host time, memory and simulated fidelity.
pub fn rep_sample(done: &Done) -> Sample {
    let mut s = Sample::default();
    let lat = done.frame_latencies_ms();
    s.set("setup_s", done.setup_s);
    s.set("run_s", done.run_s);
    s.set("peak_rss_mb", peak_rss_mb());
    s.set("frame_latency_p50_ms", percentile(&lat, 50.0));
    s.set("frame_latency_p99_ms", percentile(&lat, 99.0));
    s.set("frame_samples", lat.len() as f64);
    s.set("frames_requested", done.frames_requested() as f64);
    s.set("frames_done", done.frames_done() as f64);
    if let Report::Loaded(r) = &done.report {
        let sorted = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v
        };
        s.set("mec_rtt_p99_ms", percentile(&sorted(r.mec_rtts_ms()), 99.0));
        s.set(
            "cloud_rtt_p99_ms",
            percentile(&sorted(r.probe_rtts_ms()), 99.0),
        );
    }
    s.fingerprints
        .insert("outputs".into(), done.outputs_fingerprint());
    s.checks = own_checks(done);
    record_host(&mut s, &done.built.net().sim);
    s
}

/// The traced sample: spans, layer counters and kernel estimates.
/// Metrics that need another process (`trace.overhead_s`,
/// `simnet.sharded_build_overhead_s`) are added by the orchestrator.
pub fn trace_sample(done: &Done) -> Sample {
    let spans = done.spans.clone().unwrap_or_default();
    let net = done.built.net();
    let sim = &net.sim;
    let mut s = Sample::default();

    s.set("frames_requested", done.frames_requested() as f64);
    s.set("frames_done", done.frames_done() as f64);
    s.set("core.build_s", done.setup_s);
    s.set("core.run_s", done.run_s);
    s.set("core.schedule_s", spans.secs("core.schedule"));
    s.set("core.poll_s", spans.secs("core.poll"));
    s.set("core.collect_s", spans.secs("core.collect"));
    s.set(
        "core.reanchors_scheduled",
        spans.count("core.reanchors") as f64,
    );

    let events = sim.events_processed() as f64;
    let run_until_s = spans.secs("simnet.run_until");
    s.set(
        "simnet.run_until_calls",
        spans.count("simnet.run_until") as f64,
    );
    s.set("simnet.run_until_s", run_until_s);
    s.set("simnet.events", events);
    s.set("simnet.events_per_s", events / run_until_s);
    s.set("simnet.arrivals", sim.arrivals_dispatched() as f64);
    s.set(
        "simnet.timer_skip_ratio",
        sim.timer_fires_skipped() as f64 / events,
    );
    s.set("simnet.cross_shard_sent", sim.cross_shard_sent() as f64);
    s.set(
        "simnet.cross_shard_received",
        sim.cross_shard_received() as f64,
    );
    let by_shard = sim.events_by_shard();
    let max = by_shard.iter().copied().max().unwrap_or(0) as f64;
    s.set(
        "simnet.shard_imbalance",
        max * by_shard.len() as f64 / events,
    );
    s.set("simnet.pool_workers", sim.pool_workers() as f64);

    let core = sim
        .link_stats(net.core_uplink())
        .expect("the SGW-U -> PGW-U leg always exists");
    let enqueued: u64 = core.classes.values().map(|c| c.enqueued).sum();
    s.set("simnet.link.core_enqueued", enqueued as f64);
    s.set("simnet.link.core_drops_queue", core.drops_queue as f64);

    s.set("lte.ctrl_msgs", net.log.len() as f64);
    s.set("lte.x2_msgs", net.log.count(Protocol::X2Sctp) as f64);
    s.set("lte.s1ap_msgs", net.log.count(Protocol::S1apSctp) as f64);
    s.set("lte.gtpc_msgs", net.log.count(Protocol::Gtpv2) as f64);
    s.set("lte.core_signalling_bytes", net.log.core_bytes() as f64);
    let handovers: u64 = net
        .ues
        .iter()
        .map(|&ue| sim.node_ref::<Ue>(ue).handovers)
        .sum();
    s.set("lte.handovers", handovers as f64);
    s.set(
        "lte.dedicated_reanchored",
        sim.node_ref::<GwControl>(net.gwc).dedicated_reanchored as f64,
    );

    let reanchors = spans.count("core.reanchors");
    let estimates = [
        ("lte.wire", kernels::wire(&net.log.entries(), KERNEL_BUDGET)),
        ("core.msg", kernels::app(done, reanchors, KERNEL_BUDGET)),
        ("vision", kernels::vision(done, KERNEL_BUDGET)),
    ];
    let mut kernel_sum = spans.secs("core.poll");
    for (layer, est) in estimates {
        let est = match est {
            Ok(e) => e,
            Err(why) => {
                s.checks
                    .push(Check::new(&format!("{layer}.corpus"), false, why));
                kernels::Estimate {
                    calls: 0,
                    ns_per_call: f64::NAN,
                }
            }
        };
        let (ns, secs) = (est.ns_per_call, est.secs());
        kernel_sum += secs;
        if layer == "vision" {
            s.set("vision.match_calls", est.calls as f64);
            s.set("vision.match_ns", ns);
        } else {
            s.set(&format!("{layer}.roundtrip_ns"), ns);
        }
        s.set(&format!("{layer}.est_s"), secs);
        s.set(&format!("{layer}.share"), secs / done.run_s);
    }
    s.set("unattributed_s", done.run_s - kernel_sum);
    s.set("kernel_sum_s", kernel_sum);
    s.checks.push(Check::new(
        "kernel_estimates_within_run",
        kernel_sum <= done.run_s,
        format!(
            "vision + lte.wire + core.msg + core.poll = {kernel_sum:.4} s, run_s = {:.4} s",
            done.run_s
        ),
    ));

    s.fingerprints
        .insert("outputs".into(), done.outputs_fingerprint());
    s.checks.extend(own_checks(done));
    record_host(&mut s, sim);
    s
}

/// Host seconds to build `workload`'s input on `shards` shards.
pub fn setup_sample(workload: Workload, scale: Scale, seed: u64, shards: usize) -> Sample {
    let (built, secs) = crate::workload::Built::new(workload, scale, seed, shards);
    let mut s = Sample::default();
    s.set("setup_s", secs);
    record_host(&mut s, &built.net().sim);
    s
}
