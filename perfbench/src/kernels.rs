//! Host-time estimates for the three kernels a run calls most: the
//! control-plane codec (`lte.wire`), the application codec (`core.msg`)
//! and server-side matching (`vision`).
//!
//! Each kernel is timed, warm, on inputs taken from the finished run —
//! its control-message mix, its AR message mix, the AR servers' real
//! matching inputs — and multiplied by the number of calls the run made.

use crate::workload::{city_config, loaded_config, Built, Done};
use acacia::arclient::ArFrontendConfig;
use acacia::arserver::ArServer;
use acacia::msg::{AppMsg, FrameMeta, APP_PORT, AR_PORT};
use acacia_lte::log::LogEntry;
use acacia_lte::tft::{PacketFilter, Tft};
use acacia_lte::wire::{ControlMsg, ErabSetup, FlowActionSpec, FlowMatchSpec, PolicyRule};
use acacia_lte::{Ebi, Imsi, Qci, Teid};
use acacia_simnet::time::Instant as SimInstant;
use acacia_vision::compute::Device;
use acacia_vision::db::ObjectDb;
use acacia_vision::feature::{object_features, render_view, Similarity, ViewParams};
use acacia_vision::image::ImageSpec;
use acacia_vision::matcher::MatcherConfig;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

/// A kernel's calls in the run and its warm cost per call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Calls the run made.
    pub calls: u64,
    /// Host nanoseconds per call, warm.
    pub ns_per_call: f64,
}

impl Estimate {
    /// Estimated host seconds the run spent in the kernel.
    pub fn secs(&self) -> f64 {
        self.calls as f64 * self.ns_per_call * 1e-9
    }
}

/// Warm `f` up, then time it for at least `budget` (and at least 16
/// calls); host nanoseconds per call.
fn ns_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    for _ in 0..4 {
        f();
    }
    let t0 = Instant::now();
    let mut n = 0u64;
    while n < 16 || t0.elapsed() < budget {
        f();
        n += 1;
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// Weighted mean of per-kind costs over a `(count, ns)` mix.
fn weighted(mix: &[(u64, f64)]) -> Estimate {
    let calls: u64 = mix.iter().map(|&(n, _)| n).sum();
    let total: f64 = mix.iter().map(|&(n, ns)| n as f64 * ns).sum();
    Estimate {
        calls,
        ns_per_call: if calls == 0 {
            0.0
        } else {
            total / calls as f64
        },
    }
}

fn ip(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, last)
}

/// One representative message of every control-message kind, sized like
/// the run's: a default plus a dedicated bearer, a one-filter TFT.
#[rustfmt::skip]
pub fn control_samples() -> Vec<ControlMsg> {
    use ControlMsg::*;
    let imsi = Imsi(310_410_000_000_042);
    let tft = Tft::single(PacketFilter::to_host(ip(9)));
    let erab = |ebi: u8, qci: u8, tft: Tft| ErabSetup {
        ebi: Ebi(ebi),
        qci: Qci(qci),
        gw_teid: Teid(0x2000 + u32::from(ebi)),
        gw_addr: ip(3),
        tft,
    };
    let erabs = vec![erab(5, 9, Tft::new()), erab(6, 7, tft.clone())];
    let teids = vec![(Ebi(5), Teid(0x1005)), (Ebi(6), Teid(0x1006))];
    let rule = PolicyRule {
        service_id: 7,
        ue_addr: ip(20),
        server_addr: ip(9),
        server_port: AR_PORT,
        qci: Qci(7),
        install: true,
    };
    let flow = |add| FlowMod {
        add,
        priority: 100,
        mtch: FlowMatchSpec { teid: Some(Teid(0x1006)), dst: Some(ip(9)), src: None },
        actions: vec![
            FlowActionSpec::GtpDecap,
            FlowActionSpec::SetTos { tos: 28 },
            FlowActionSpec::GtpEncap { peer: ip(4), teid: Teid(0x2006) },
            FlowActionSpec::Output { port: 1 },
        ],
    };
    vec![
        InitialUeAttach { imsi },
        InitialUeServiceRequest { imsi },
        InitialContextSetupRequest { imsi, erabs: erabs.clone() },
        InitialContextSetupResponse { imsi, enb_teids: teids.clone() },
        DownlinkNasAccept { imsi, ue_addr: Some(ip(20)) },
        ErabSetupRequest { imsi, erab: erabs[1].clone() },
        ErabSetupResponse { imsi, ebi: Ebi(6), enb_teid: Teid(0x1006) },
        ErabReleaseCommand { imsi, ebi: Ebi(6) },
        ErabReleaseResponse { imsi, ebi: Ebi(6) },
        UeContextReleaseRequest { imsi },
        UeContextReleaseCommand { imsi },
        UeContextReleaseComplete { imsi },
        Paging { imsi },
        PathSwitchRequest { imsi, enb_addr: ip(2), erabs: teids.clone(), txid: 3 },
        PathSwitchRequestAck { imsi, erabs: erabs.clone() },
        X2HandoverRequest { imsi, ue_addr: Some(ip(20)), bearers: erabs.clone(), txid: 3 },
        X2HandoverRequestAck { imsi, erabs: teids.clone(), txid: 3 },
        X2HandoverCancel { imsi, txid: 3 },
        X2SnStatusTransfer { imsi, dl_count: 1_234, ul_count: 987 },
        X2UeContextRelease { imsi },
        CreateSessionRequest { imsi },
        CreateSessionResponse { imsi, ue_addr: ip(20), erab: erabs[0].clone() },
        CreateBearerRequest { imsi, erab: erabs[1].clone() },
        CreateBearerResponse { imsi, ebi: Ebi(6), enb_teid: Teid(0x1006), enb_addr: ip(2) },
        DeleteBearerRequest { imsi, ebi: Ebi(6) },
        DeleteBearerResponse { imsi, ebi: Ebi(6) },
        DeleteBearerCommand { imsi },
        GwuFailureIndication { gwu_addr: ip(4) },
        ReleaseAccessBearersRequest { imsi },
        ReleaseAccessBearersResponse { imsi },
        ModifyBearerRequest { imsi, enb_teid: Teid(0x1005), enb_addr: ip(2) },
        ModifyBearerResponse { imsi },
        DownlinkDataByTeid { teid: Teid(0x2005) },
        DownlinkDataNotification { imsi },
        BearerRelocationRequest { imsi, enb_addr: ip(2), enb_teids: teids.clone() },
        BearerRelocationResponse { imsi, erabs: erabs.clone(), released: vec![Ebi(7)] },
        RxAuthRequest { rule: rule.clone() },
        RxAuthAnswer { service_id: 7, ok: true },
        GxReauthRequest { rule },
        GxReauthAnswer { service_id: 7, ok: true },
        S6aAuthInfoRequest { imsi },
        S6aAuthInfoAnswer { imsi, ok: true },
        flow(true),
        flow(false),
        RrcAttachRequest { imsi },
        RrcServiceRequest { imsi },
        RrcReconfiguration { ebi: Ebi(6), qci: Qci(7), tft, ue_addr: Some(ip(20)) },
        RrcRelease { imsi },
        RrcBearerRelease { ebi: Ebi(6) },
        RrcPaging { imsi },
        RrcMeasurementReport { imsi, serving_rsrp_cdbm: -9_500, target_radio: ip(12), target_rsrp_cdbm: -9_100 },
        RrcHandoverCommand { imsi, target_radio: ip(12) },
        RrcHandoverConfirm { imsi },
        RrcReestablishmentRequest { imsi },
        RrcReestablishmentConfirm { imsi },
    ]
}

/// `ControlMsg::into_packet` + `from_packet` over the run's per-name
/// message mix (`MsgLog::entries()`). Fails on a logged name with no
/// sample or a sample that does not survive the round trip.
pub fn wire(entries: &[LogEntry], budget: Duration) -> Result<Estimate, String> {
    let mut counts = BTreeMap::<&str, u64>::new();
    for e in entries {
        *counts.entry(e.name).or_default() += 1;
    }
    let samples = control_samples();
    let mut mix = Vec::with_capacity(counts.len());
    for (name, n) in counts {
        let msg = samples
            .iter()
            .find(|m| m.name() == name)
            .ok_or_else(|| format!("no sample for control message {name}"))?;
        let pkt = msg.into_packet(ip(1), ip(2));
        if ControlMsg::from_packet(&pkt).as_ref() != Some(msg) {
            return Err(format!("{name} does not survive the codec round trip"));
        }
        let per = budget / samples.len() as u32;
        let ns = ns_per_call(per, || {
            let pkt = black_box(msg).into_packet(ip(1), ip(2));
            black_box(ControlMsg::from_packet(&pkt));
        });
        mix.push((n, ns));
    }
    Ok(weighted(&mix))
}

/// `AppMsg::into_packet` + `from_packet` over the run's AR message mix:
/// per frame, one chunk carrying the frame metadata, the other chunks
/// bare, one ack per chunk and one result; per session an MRS request
/// and answer, and one more pair per device-manager re-anchor.
pub fn app(done: &Done, reanchors: u64, budget: Duration) -> Result<Estimate, String> {
    let client = ArFrontendConfig::new(ip(20), ip(9));
    let sim = &done.built.net().sim;
    let (mut frames, mut chunks) = (0u64, 0u64);
    for server in done.built.servers() {
        for r in &sim.node_ref::<ArServer>(server).records {
            let bytes = client
                .codec
                .bytes(ImageSpec::new(r.truth, client.resolution));
            frames += 1;
            chunks += bytes.div_ceil(u64::from(client.chunk_bytes)).max(1);
        }
    }
    let sessions = done.built.clients().len() as u64;
    let spec = ImageSpec::new(1, client.resolution);
    let head = AppMsg::FrameChunk {
        seq: 1,
        chunk: 0,
        total_chunks: 24,
        meta: Some(FrameMeta {
            spec,
            codec: client.codec,
            view_seed: 0x9e37_79b9 ^ 1,
            captured_at_nanos: 12_345_678_901,
        }),
    };
    let body = AppMsg::FrameChunk {
        seq: 1,
        chunk: 7,
        total_chunks: 24,
        meta: None,
    };
    let ack = AppMsg::ChunkAck { seq: 1, chunk: 7 };
    let result = AppMsg::FrameResult {
        seq: 1,
        matched: Some("grocery#3".into()),
        compute_s: 0.061_234_5,
        match_s: 0.154_321_9,
        candidates: 21,
    };
    let request = AppMsg::MrsRequest {
        service: "acacia-ar-r3".into(),
        ue_addr: ip(20),
        create: true,
    };
    let answer = AppMsg::MrsAck {
        service: "acacia-ar-r3".into(),
        ok: true,
        server: Some(ip(9)),
    };
    let mrs_pairs = sessions + reanchors;
    let kinds = [
        (head, frames),
        (body, chunks - frames),
        (ack, chunks),
        (result, frames),
        (request, mrs_pairs),
        (answer, mrs_pairs),
    ];
    let mut mix = Vec::with_capacity(kinds.len());
    for (msg, n) in &kinds {
        let pkt = msg.into_packet((ip(1), APP_PORT), (ip(2), AR_PORT), 0, SimInstant::ZERO);
        if AppMsg::from_packet(&pkt).as_ref() != Some(msg) {
            return Err(format!("{msg:?} does not survive the codec round trip"));
        }
        let ns = ns_per_call(budget / kinds.len() as u32, || {
            let pkt = black_box(msg).into_packet(
                (ip(1), APP_PORT),
                (ip(2), AR_PORT),
                0,
                SimInstant::ZERO,
            );
            black_box(AppMsg::from_packet(&pkt));
        });
        mix.push((*n, ns));
    }
    Ok(weighted(&mix))
}

/// `ObjectDb::match_against` on the AR servers' real inputs: the frame
/// each record describes (scene, resolution, the client's view seed),
/// naive candidates (the whole database) and the server's execution cap.
/// Each distinct input is re-matched once first and must reproduce the
/// record's simulated match time exactly — proof the inputs are the
/// server's — then timed warm and weighted by how often it occurred.
pub fn vision(done: &Done, budget: Duration) -> Result<Estimate, String> {
    let (db_per_subsection, exec_cap) = match &done.built {
        Built::City(_) => {
            let c = city_config(done.scale, done.seed);
            (c.db_per_subsection, c.exec_cap)
        }
        Built::Loaded(_) => {
            let c = loaded_config(done.scale, done.seed).scale;
            (c.db_per_subsection, c.exec_cap)
        }
    };
    let db = ObjectDb::retail_cached(db_per_subsection, done.seed);
    let resolution = ArFrontendConfig::new(ip(20), ip(9)).resolution;
    // The scenarios' servers run on the I7Octa profile.
    let profile = Device::I7Octa.profile();
    let sim = &done.built.net().sim;
    // (scene, seq) identifies the input; value = (occurrences, match_s).
    let mut inputs = BTreeMap::<(u64, u64), (u64, f64)>::new();
    for server in done.built.servers() {
        for r in &sim.node_ref::<ArServer>(server).records {
            inputs.entry((r.truth, r.seq)).or_insert((0, r.match_s)).0 += 1;
        }
    }
    let mut mix = Vec::with_capacity(inputs.len());
    for (&(scene, seq), &(n, match_s)) in &inputs {
        let spec = ImageSpec::new(scene, resolution);
        let view_seed = seq.wrapping_mul(0x9e37_79b9) ^ scene;
        let base = object_features(scene, spec.feature_count());
        let view = render_view(
            &base,
            Similarity::from_seed(view_seed),
            ViewParams::default(),
            view_seed,
        );
        let matcher = MatcherConfig {
            exec_cap,
            seed: view_seed,
            ..MatcherConfig::default()
        };
        let outcome = db.match_against(&view, db.objects(), &matcher);
        let replayed = profile.match_time_s(&outcome.ops);
        if replayed != match_s {
            return Err(format!(
                "scene {scene} seq {seq}: re-matched in {replayed} s simulated, server recorded {match_s} s"
            ));
        }
        let ns = ns_per_call(budget / inputs.len() as u32, || {
            black_box(db.match_against(black_box(&view), db.objects(), &matcher));
        });
        mix.push((n, ns));
    }
    Ok(weighted(&mix))
}
