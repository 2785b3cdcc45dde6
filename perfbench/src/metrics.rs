//! The benchmark's metric catalogue: every end-to-end and per-layer
//! metric by name and unit, which direction is better, and — for the
//! per-layer ones — which end-to-end metric on which workload the layer
//! is expected to move. `BENCHMARK.json` lists the same names; the
//! self-test keeps the two in step.

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// What the metric is, and (per-layer) what it should move where.
    pub about: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    about: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        about,
    }
}

/// Untraced metrics a user of the simulator sees, reported on every
/// workload as the median over the run's fresh-process repetitions.
#[rustfmt::skip]
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower", "host seconds in the scenario's build"),
    m("run_s", "s", "lower", "host seconds from schedule through collect"),
    m("peak_rss_mb", "MiB", "lower", "the measuring process's VmHWM"),
    m("frame_latency_p50_ms", "ms", "lower", "simulated AR frame response time, median over every completed frame"),
    m("frame_latency_p99_ms", "ms", "lower", "simulated AR frame response time, 99th percentile"),
];

/// Traced-run metrics, one layer at a time, named by module.
#[rustfmt::skip]
pub const PER_LAYER: &[MetricDef] = &[
    // core: the scenario driver.
    m("core.build_s", "s", "lower", "traced build; moves setup_s on every workload"),
    m("core.run_s", "s", "lower", "traced schedule..collect, the base of every share; tracks run_s on every workload"),
    m("core.schedule_s", "s", "lower", "moves run_s on city and city-sharded"),
    m("core.poll_s", "s", "lower", "re-anchor + done scans between run_until calls; moves run_s on city and city-sharded"),
    m("core.collect_s", "s", "lower", "moves run_s on city and city-sharded"),
    m("core.reanchors_scheduled", "count", "lower", "device-manager re-anchors; moves run_s on city and city-sharded"),
    // simnet: the engine.
    m("simnet.run_until_calls", "count", "lower", "moves run_s on every workload"),
    m("simnet.run_until_s", "s", "lower", "engine time; moves run_s on every workload, most on loaded"),
    m("simnet.events", "count", "lower", "moves run_s on every workload, most on loaded"),
    m("simnet.events_per_s", "1/s", "higher", "moves run_s on every workload, most on loaded"),
    m("simnet.arrivals", "count", "lower", "packet arrivals; moves run_s on every workload"),
    m("simnet.timer_skip_ratio", "ratio", "lower", "cancelled-timer pops / events (wasted dispatch); moves run_s on every workload"),
    m("simnet.cross_shard_sent", "count", "lower", "moves run_s on city-sharded only"),
    m("simnet.cross_shard_received", "count", "lower", "moves run_s on city-sharded only"),
    m("simnet.shard_imbalance", "ratio", "lower", "max/mean events per shard; moves run_s on city-sharded only"),
    m("simnet.pool_workers", "count", "lower", "threaded-driver workers (0 = serial driver); moves run_s on city-sharded only"),
    m("simnet.sharded_build_overhead_s", "s", "lower", "build at 2 shards minus build at 1 shard, same input; moves setup_s on city-sharded"),
    // simnet.link: the core leg's queues.
    m("simnet.link.core_enqueued", "count", "lower", "SGW-U -> PGW-U enqueues; moves run_s on loaded"),
    m("simnet.link.core_drops_queue", "count", "lower", "drop-tail drops on that leg; moves run_s on loaded"),
    // lte: entities and the message log.
    m("lte.ctrl_msgs", "count", "lower", "every logged control message; moves run_s on city"),
    m("lte.x2_msgs", "count", "lower", "moves run_s on city"),
    m("lte.s1ap_msgs", "count", "lower", "moves run_s on city"),
    m("lte.gtpc_msgs", "count", "lower", "moves run_s on city"),
    m("lte.core_signalling_bytes", "bytes", "lower", "moves run_s on city"),
    m("lte.handovers", "count", "lower", "moves run_s on city"),
    m("lte.dedicated_reanchored", "count", "lower", "moves run_s on city"),
    // lte.wire: the control codec.
    m("lte.wire.roundtrip_ns", "ns", "lower", "into_packet + from_packet over the run's message mix; moves run_s on city, not on loaded"),
    m("lte.wire.est_s", "s", "lower", "roundtrip_ns x lte.ctrl_msgs; moves run_s on city"),
    m("lte.wire.share", "ratio", "lower", "lte.wire.est_s / core.run_s; moves run_s on city, not on loaded"),
    // core.msg: the application codec.
    m("core.msg.roundtrip_ns", "ns", "lower", "AppMsg into_packet + from_packet over the AR mix; moves run_s on city"),
    m("core.msg.est_s", "s", "lower", "roundtrip_ns x messages derived from frames and chunk size; moves run_s on city"),
    m("core.msg.share", "ratio", "lower", "core.msg.est_s / core.run_s; moves run_s on city"),
    // vision: server-side matching.
    m("vision.match_calls", "count", "lower", "ObjectDb::match_against calls at the AR servers; moves run_s on city"),
    m("vision.match_ns", "ns", "lower", "one match_against on the servers' real inputs; moves run_s on city, barely on loaded"),
    m("vision.est_s", "s", "lower", "match_ns x match_calls; moves run_s on city"),
    m("vision.share", "ratio", "lower", "vision.est_s / core.run_s; moves run_s on city, barely on loaded"),
    // The remainder and the instrument itself.
    m("unattributed_s", "s", "lower", "core.run_s minus kernel estimates and core.poll_s (dispatch, entities, links, geo/d2d); moves run_s on every workload, most on loaded"),
    m("trace.overhead_s", "s", "lower", "traced core.run_s minus the untraced run_s of the same input; moves no end-to-end metric"),
];
