//! The three workloads, built and run through the public scenario API of
//! `acacia`, either untraced (the library's own await loop) or traced
//! (the benchmark's copy of that loop, with a span around every call
//! into a layer).
//!
//! * `city` — `CityConfig::figure()`: 8 regions x 256 UEs, two frames and
//!   two handovers per session, on one engine shard. Control plane and
//!   application (vision matching, codecs) dominate.
//! * `city-sharded` — the same input on two shards: region placement,
//!   pair lookahead, the shard pool and cross-shard exchange. Its
//!   simulated outputs must equal `city`'s.
//! * `loaded` — `LoadedConfig::figure(64, 160)` on one shard: 64 AR
//!   sessions plus a 160 Mb/s flood through the 100 Mb/s core. The link
//!   and data plane dominate.

use acacia::arclient::ArFrontend;
use acacia::city::{CityConfig, CityReport, CityScenario, CityTimeline};
use acacia::loaded::{LoadedConfig, LoadedReport, LoadedUeReport};
use acacia::scale::{ScaleScenario, ScaleTimeline};
use acacia_lte::network::{addr, LteNetwork};
use acacia_lte::ue::{AppSelector, Ue};
use acacia_simnet::link::LinkConfig;
use acacia_simnet::packet::proto;
use acacia_simnet::sim::NodeId;
use acacia_simnet::time::Duration;
use acacia_simnet::traffic::Reflector;
use acacia_simnet::transport::PingAgent;
use std::collections::BTreeMap;
use std::time::Instant;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 2048-UE city on one shard.
    City,
    /// The same city on two shards.
    CitySharded,
    /// 64 sessions under a 160 Mb/s core flood.
    Loaded,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::City, Workload::CitySharded, Workload::Loaded];

    /// Name as given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::City => "city",
            Workload::CitySharded => "city-sharded",
            Workload::Loaded => "loaded",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinct inputs one measurement covers (see [`input_seeds`]):
    /// frame latency and run time move with the scene the seed draws, so
    /// a median over several inputs is steadier than one input repeated.
    /// `city-sharded` takes two because each costs twice a `city` run.
    pub fn inputs(self) -> usize {
        match self {
            Workload::CitySharded => 2,
            Workload::City | Workload::Loaded => 3,
        }
    }

    /// Engine shards the workload runs on.
    pub fn shards(self) -> usize {
        match self {
            Workload::CitySharded => 2,
            Workload::City | Workload::Loaded => 1,
        }
    }
}

/// Scenario seeds a measurement with workload seed `seed` covers: the
/// seed itself first, then seeds a large prime stride apart, so the
/// inputs of neighbouring workload seeds never overlap.
pub fn input_seeds(workload: Workload, seed: u64) -> Vec<u64> {
    (0..workload.inputs() as u64)
        .map(|i| seed.wrapping_add(i * 1_000_003))
        .collect()
}

/// Input size: the benchmark's figure configurations, or the smoke
/// configurations the self-test runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `CityConfig::figure()` / `LoadedConfig::figure(64, 160)`.
    Figure,
    /// `CityConfig::smoke()` / `LoadedConfig::smoke(4, 160)`.
    Smoke,
}

/// The city configuration for a seed.
pub fn city_config(scale: Scale, seed: u64) -> CityConfig {
    let base = match scale {
        Scale::Figure => CityConfig::figure(),
        Scale::Smoke => CityConfig::smoke(),
    };
    CityConfig { seed, ..base }
}

/// The loaded configuration for a seed.
pub fn loaded_config(scale: Scale, seed: u64) -> LoadedConfig {
    let mut cfg = match scale {
        Scale::Figure => LoadedConfig::figure(64, 160),
        Scale::Smoke => LoadedConfig::smoke(4, 160),
    };
    cfg.scale.seed = seed;
    cfg
}

/// Host-time spans and counts of a traced run, summed by name.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    secs: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, u64>,
}

impl Spans {
    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        *self.secs.entry(name).or_default() += t0.elapsed().as_secs_f64();
        self.add(name, 1);
        out
    }

    /// Add to a count.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Seconds spent in spans named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.secs.get(name).copied().unwrap_or(0.0)
    }

    /// Spans opened, or counts added, under `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

/// MEC liveness-probe spacing of the loaded scenario.
const MEC_PROBE_INTERVAL: Duration = Duration::from_millis(25);
/// One-way walk length of the scale-out course (38 m - 2 m).
const WALK_SPAN_M: f64 = 36.0;

/// The loaded scenario assembled from its public parts — a scale-out
/// scenario, a cloud reflector, and a cloud probe plus a MEC probe per UE
/// — exactly as `LoadedScenario` assembles it. `LoadedScenario` keeps
/// its sessions private; this copy lets the benchmark read every AR
/// frame and span the await loop. The traced run checks that its report
/// equals the library's own.
pub struct LoadedRig {
    /// The underlying scale-out scenario.
    pub scale: ScaleScenario,
    probes: Vec<NodeId>,
    mec_probes: Vec<NodeId>,
    cfg: LoadedConfig,
}

impl LoadedRig {
    /// Build as `LoadedScenario::build` does.
    pub fn build(cfg: LoadedConfig) -> LoadedRig {
        let mut scale = ScaleScenario::build(cfg.scale.clone());
        let (_, cloud_addr) = scale.net.add_cloud_server(
            Box::new(Reflector::new()),
            LinkConfig::delay_only(Duration::from_millis(2)),
        );
        let walk = Duration::from_secs_f64(2.0 * WALK_SPAN_M / cfg.scale.speed_mps);
        let stagger_total =
            Duration::from_nanos(cfg.scale.stagger.nanos() * cfg.scale.ue_count as u64);
        let mec_count =
            (stagger_total + walk + Duration::from_secs(2)).millis() / MEC_PROBE_INTERVAL.millis();
        let mut probes = Vec::with_capacity(cfg.scale.ue_count);
        let mut mec_probes = Vec::with_capacity(cfg.scale.ue_count);
        for i in 0..cfg.scale.ue_count {
            let ue_ip = scale
                .net
                .sim
                .node_ref::<Ue>(scale.net.ues[i])
                .ip
                .expect("scale build attaches every UE");
            let agent = PingAgent::new(ue_ip, cloud_addr, cfg.probe_interval, cfg.probe_count);
            probes.push(scale.net.connect_ue_app(
                i,
                Box::new(agent),
                AppSelector::protocol(proto::ICMP),
            ));
            let mec = PingAgent::new(ue_ip, addr::MEC_BASE, MEC_PROBE_INTERVAL, mec_count);
            mec_probes.push(scale.net.connect_ue_app(
                i,
                Box::new(mec),
                AppSelector::protocol(proto::ICMP),
            ));
        }
        LoadedRig {
            scale,
            probes,
            mec_probes,
            cfg,
        }
    }

    /// Schedule sessions, the background flood and both probe sets, as
    /// `LoadedScenario::run` does before awaiting the sessions.
    pub fn schedule(&mut self) -> ScaleTimeline {
        let timeline = self.scale.schedule();
        let bg_start = timeline.start + timeline.stagger_total + Duration::from_secs(1);
        if self.cfg.bg_rate_bps > 0 {
            self.scale.net.start_background_traffic(
                self.cfg.bg_rate_bps,
                bg_start,
                timeline.deadline,
            );
        }
        let probe_start = bg_start + Duration::from_secs(2);
        for &p in &self.probes {
            self.scale
                .net
                .sim
                .schedule_timer(p, probe_start, PingAgent::KICKOFF);
        }
        for &p in &self.mec_probes {
            self.scale
                .net
                .sim
                .schedule_timer(p, timeline.start, PingAgent::KICKOFF);
        }
        timeline
    }

    /// Collect the report, as `LoadedScenario::run` does after awaiting.
    pub fn collect(&self, timeline: &ScaleTimeline) -> LoadedReport {
        let base = self.scale.collect(timeline);
        let net = &self.scale.net;
        let ms = |d: &Duration| d.secs_f64() * 1e3;
        let ues = base
            .ues
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let ue = net.sim.node_ref::<Ue>(net.ues[i]);
                let probe = net.sim.node_ref::<PingAgent>(self.probes[i]);
                let mec = net.sim.node_ref::<PingAgent>(self.mec_probes[i]);
                LoadedUeReport {
                    frames_done: s.frames_done,
                    handovers: s.handovers,
                    retransmissions: s.retransmissions,
                    interruptions_ms: ue.interruption_log.iter().map(|(_, d)| ms(d)).collect(),
                    probe_rtts_ms: probe.rtts().iter().map(ms).collect(),
                    probes_sent: probe.sent(),
                    probes_lost: probe.lost(),
                    mec_rtts_ms: mec.rtts().iter().map(ms).collect(),
                    mec_probes_sent: mec.sent(),
                    mec_probes_lost: mec.lost(),
                }
            })
            .collect();
        let core = net
            .sim
            .link_stats(net.core_uplink())
            .expect("the SGW-U -> PGW-U leg always exists");
        LoadedReport {
            ue_count: base.ue_count,
            bg_rate_bps: self.cfg.bg_rate_bps,
            core_rate_bps: self.cfg.scale.core_rate_bps,
            frames_requested: base.frames_requested,
            ues,
            core_classes: core.classes.iter().map(|(&c, &s)| (c, s)).collect(),
            core_drops_queue: core.drops_queue,
            x2_msgs: base.x2_msgs,
            events_processed: base.events_processed,
            sim_elapsed: base.sim_elapsed,
        }
    }
}

/// A built scenario.
pub enum Built {
    /// `city` or `city-sharded`.
    City(CityScenario),
    /// `loaded`.
    Loaded(LoadedRig),
}

impl Built {
    /// Build `workload`'s input for `seed` on `shards` engine shards,
    /// returning it with the host seconds the build took.
    pub fn new(workload: Workload, scale: Scale, seed: u64, shards: usize) -> (Built, f64) {
        acacia_simnet::set_default_shards(Some(shards));
        let t0 = Instant::now();
        let built = match workload {
            Workload::City | Workload::CitySharded => {
                Built::City(CityScenario::build(city_config(scale, seed)))
            }
            Workload::Loaded => Built::Loaded(LoadedRig::build(loaded_config(scale, seed))),
        };
        (built, t0.elapsed().as_secs_f64())
    }

    /// The network (and simulator) the scenario owns.
    pub fn net(&self) -> &LteNetwork {
        match self {
            Built::City(s) => &s.net,
            Built::Loaded(r) => &r.scale.net,
        }
    }

    /// AR client nodes, in UE order.
    pub fn clients(&self) -> &[NodeId] {
        match self {
            Built::City(s) => &s.clients,
            Built::Loaded(r) => &r.scale.clients,
        }
    }

    /// AR server nodes.
    pub fn servers(&self) -> Vec<NodeId> {
        match self {
            Built::City(s) => s.servers.clone(),
            Built::Loaded(r) => vec![r.scale.server],
        }
    }
}

/// A scenario's report.
#[derive(Debug, Clone)]
pub enum Report {
    /// From `CityScenario::collect`.
    City(CityReport),
    /// From the loaded rig.
    Loaded(LoadedReport),
}

/// A finished run: the scenario (for reading layer state), its report,
/// and the host time it took.
pub struct Done {
    /// Input size.
    pub scale: Scale,
    /// Workload seed.
    pub seed: u64,
    /// The scenario after the run.
    pub built: Built,
    /// Its report.
    pub report: Report,
    /// Host seconds in build.
    pub setup_s: f64,
    /// Host seconds from schedule through collect.
    pub run_s: f64,
    /// Spans, for a traced run.
    pub spans: Option<Spans>,
}

/// Build and run one workload. Untraced, the run is the library's own
/// `schedule` / `await_sessions` / `collect`; traced, it is the same
/// sequence with the await loop re-driven here under spans.
pub fn run(workload: Workload, scale: Scale, seed: u64, traced: bool) -> Done {
    let (mut built, setup_s) = Built::new(workload, scale, seed, workload.shards());
    let mut spans = traced.then(Spans::default);
    let (report, run_s) = match (&mut built, spans.as_mut()) {
        (Built::City(s), None) => {
            let t0 = Instant::now();
            let tl = s.schedule();
            s.await_sessions(&tl);
            let r = s.collect(&tl);
            (Report::City(r), t0.elapsed().as_secs_f64())
        }
        (Built::City(s), Some(spans)) => {
            // The library seeds its re-anchor memory at build time from
            // the same call; no simulated time has passed since.
            let mut last: Vec<usize> = (0..s.clients.len())
                .map(|i| s.net.serving_cell(i))
                .collect();
            let t0 = Instant::now();
            let tl = spans.time("core.schedule", || s.schedule());
            drive_city(s, &tl, &mut last, spans);
            let r = spans.time("core.collect", || s.collect(&tl));
            (Report::City(r), t0.elapsed().as_secs_f64())
        }
        (Built::Loaded(rig), None) => {
            let t0 = Instant::now();
            let tl = rig.schedule();
            rig.scale.await_sessions(&tl);
            let r = rig.collect(&tl);
            (Report::Loaded(r), t0.elapsed().as_secs_f64())
        }
        (Built::Loaded(rig), Some(spans)) => {
            let t0 = Instant::now();
            let tl = spans.time("core.schedule", || rig.schedule());
            drive_scale(&mut rig.scale, &tl, spans);
            let r = spans.time("core.collect", || rig.collect(&tl));
            (Report::Loaded(r), t0.elapsed().as_secs_f64())
        }
    };
    Done {
        scale,
        seed,
        built,
        report,
        setup_s,
        run_s,
        spans,
    }
}

/// `CityScenario::await_sessions`, with spans: run 200 ms, then poll
/// every client's serving cell (scheduling the device-manager re-anchor
/// on a change) and its done flag.
fn drive_city(s: &mut CityScenario, tl: &CityTimeline, last: &mut [usize], spans: &mut Spans) {
    while s.net.sim.now() < tl.deadline {
        let t = s.net.sim.now() + Duration::from_millis(200);
        spans.time("simnet.run_until", || s.net.sim.run_until(t));
        let now = s.net.sim.now();
        let (all_done, reanchors) = spans.time("core.poll", || {
            let mut all_done = true;
            let mut reanchors = 0;
            for (i, &client) in s.clients.iter().enumerate() {
                let serving = s.net.serving_cell(i);
                if serving != last[i] {
                    last[i] = serving;
                    s.net.sim.schedule_timer(client, now, ArFrontend::REANCHOR);
                    reanchors += 1;
                }
                all_done &= s.net.sim.node_ref::<ArFrontend>(client).done();
            }
            (all_done, reanchors)
        });
        spans.add("core.reanchors", reanchors);
        if now >= tl.walk_end && all_done {
            break;
        }
    }
    let drain = s.net.sim.now() + Duration::from_millis(500);
    spans.time("simnet.run_until", || s.net.sim.run_until(drain));
}

/// `ScaleScenario::await_sessions`, with spans.
fn drive_scale(s: &mut ScaleScenario, tl: &ScaleTimeline, spans: &mut Spans) {
    while s.net.sim.now() < tl.deadline {
        let t = s.net.sim.now() + Duration::from_millis(200);
        spans.time("simnet.run_until", || s.net.sim.run_until(t));
        if s.net.sim.now() < tl.walk_end {
            continue;
        }
        let all_done = spans.time("core.poll", || {
            s.clients
                .iter()
                .all(|&c| s.net.sim.node_ref::<ArFrontend>(c).done())
        });
        if all_done {
            break;
        }
    }
    let drain = s.net.sim.now() + Duration::from_millis(500);
    spans.time("simnet.run_until", || s.net.sim.run_until(drain));
}

/// A loaded report's simulated outputs: the report without the engine's
/// event count, which is engine-internal.
pub fn loaded_outputs(r: &LoadedReport) -> LoadedReport {
    LoadedReport {
        events_processed: 0,
        ..r.clone()
    }
}

impl Done {
    /// Every completed frame's simulated response time, ms, ascending.
    pub fn frame_latencies_ms(&self) -> Vec<f64> {
        let sim = &self.built.net().sim;
        let mut v: Vec<f64> = self
            .built
            .clients()
            .iter()
            .flat_map(|&c| sim.node_ref::<ArFrontend>(c).frames.iter())
            .map(|f| f.total_s() * 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Frames requested across every session.
    pub fn frames_requested(&self) -> u64 {
        match &self.report {
            Report::City(r) => r.frames_requested * r.ue_count as u64,
            Report::Loaded(r) => r.frames_requested * r.ue_count as u64,
        }
    }

    /// Frames completed across every session.
    pub fn frames_done(&self) -> u64 {
        match &self.report {
            Report::City(r) => r.ues.iter().map(|u| u.frames_done).sum(),
            Report::Loaded(r) => r.ues.iter().map(|u| u.frames_done).sum(),
        }
    }

    /// Fingerprint of every simulated output that must not depend on the
    /// shard count or on tracing: the report without its engine counters
    /// (the event count, which is engine-internal and which an engine
    /// change may move without moving any output, and the per-shard
    /// splits), plus every frame's client-side record.
    pub fn outputs_fingerprint(&self) -> u64 {
        let sim = &self.built.net().sim;
        let frames: Vec<_> = self
            .built
            .clients()
            .iter()
            .map(|&c| &sim.node_ref::<ArFrontend>(c).frames)
            .collect();
        match &self.report {
            Report::City(r) => {
                let outputs = CityReport {
                    events_processed: 0,
                    events_by_shard: Vec::new(),
                    cross_shard_sent: 0,
                    cross_shard_received: 0,
                    ..r.clone()
                };
                crate::sample::fingerprint(&(outputs, frames))
            }
            Report::Loaded(r) => crate::sample::fingerprint(&(loaded_outputs(r), frames)),
        }
    }
}
