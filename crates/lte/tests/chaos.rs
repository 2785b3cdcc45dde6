//! Control-plane fault-injection integration tests: targeted drops of
//! individual handover messages must be absorbed by the guard-timer /
//! retransmission / cancel / re-establishment / fallback machinery, and
//! arbitrary fault schedules must never wedge a UE.

use acacia_geo::Point;
use acacia_lte::enb::Enb;
use acacia_lte::entities::GwControl;
use acacia_lte::network::{CellConfig, LteConfig, LteNetwork};
use acacia_lte::prelude::*;
use acacia_lte::ue::{AppSelector, Ue, UeState};
use acacia_lte::wire::fault_class;
use acacia_simnet::fault::{FaultPlan, FaultRule, PacketClass};
use acacia_simnet::packet::proto;
use acacia_simnet::sim::NodeId;
use acacia_simnet::time::Duration;
use acacia_simnet::traffic::Reflector;
use acacia_simnet::transport::PingAgent;
use proptest::prelude::*;
use std::net::Ipv4Addr;

// Message kinds the targeted drops aim at; only the variant matters.
fn path_switch_request() -> ControlMsg {
    ControlMsg::PathSwitchRequest {
        imsi: Imsi(0),
        enb_addr: Ipv4Addr::UNSPECIFIED,
        erabs: vec![],
        txid: 0,
    }
}

fn x2_handover_request() -> ControlMsg {
    ControlMsg::X2HandoverRequest {
        imsi: Imsi(0),
        ue_addr: None,
        bearers: vec![],
        txid: 0,
    }
}

fn rrc_handover_command() -> ControlMsg {
    ControlMsg::RrcHandoverCommand {
        imsi: Imsi(0),
        target_radio: Ipv4Addr::UNSPECIFIED,
    }
}

fn two_mec_cells(core_detour: bool) -> LteConfig {
    LteConfig {
        cells: vec![
            CellConfig {
                pos: Point::new(0.0, 0.0),
                mec: true,
                region: 0,
            },
            CellConfig {
                pos: Point::new(40.0, 0.0),
                mec: true,
                region: 1,
            },
        ],
        core_detour,
        ..LteConfig::default()
    }
}

/// Bring up a pinging session on a dedicated bearer, hand the network to
/// `faults` to arm its plans, then walk toward the far cell.
fn walk_under_faults(cfg: LteConfig, faults: impl FnOnce(&mut LteNetwork)) -> (LteNetwork, NodeId) {
    let mut net = LteNetwork::new(cfg);
    let (_, mec_addr) = net.add_mec_server(Box::new(Reflector::new()));
    let ue_ip = net.attach(0);
    net.activate_dedicated_bearer(
        0,
        PolicyRule {
            service_id: 9,
            ue_addr: ue_ip,
            server_addr: mec_addr,
            server_port: 0,
            qci: Qci(7),
            install: true,
        },
    );
    // Faults arm only after attach + bearer setup: these tests target the
    // handover machinery, exactly like `LteNetwork::set_radio_loss`
    // recommends for data-plane loss.
    faults(&mut net);
    let agent = net.connect_ue_app(
        0,
        Box::new(PingAgent::new(
            ue_ip,
            mec_addr,
            Duration::from_millis(100),
            150,
        )),
        AppSelector::protocol(proto::ICMP),
    );
    net.sim
        .schedule_timer(agent, net.sim.now(), PingAgent::KICKOFF);
    net.start_mobility(
        0,
        vec![
            Waypoint::passing(Point::new(2.0, 0.0)),
            Waypoint::passing(Point::new(38.0, 0.0)),
        ],
        4.0,
    );
    net.run_for(Duration::from_secs(16));
    // Let trailing guard timers resolve so "outstanding" means wedged,
    // not merely in-flight.
    net.run_for(Duration::from_secs(4));
    (net, agent)
}

fn assert_no_wedge(net: &LteNetwork) {
    for (i, &enb) in net.enbs.iter().enumerate() {
        assert_eq!(
            net.sim.node_ref::<Enb>(enb).outstanding_handovers(),
            0,
            "eNB {i} left a handover procedure open"
        );
    }
    let ue = net.sim.node_ref::<Ue>(net.ues[0]);
    assert!(
        matches!(ue.state, UeState::Connected | UeState::Idle),
        "UE ended in {:?}",
        ue.state
    );
}

/// Dropping the first Path Switch Request makes the target eNB's guard
/// timer retransmit it; the handover still completes and the dedicated
/// bearer still re-anchors.
#[test]
fn nth_path_switch_drop_is_retransmitted() {
    let (net, agent) = walk_under_faults(two_mec_cells(false), |net| {
        let plan = FaultPlan::new(1)
            .with_rule(FaultRule::drop(fault_class(&path_switch_request()), 1.0).on_nth(1));
        net.sim.attach_fault_plan(net.s1ap_uplink(1), plan);
    });
    let target = net.sim.node_ref::<Enb>(net.enbs[1]);
    assert_eq!(target.ps_retx, 1, "guard timer must resend the PSq");
    assert_eq!(target.ho_in_done, 1);
    assert_eq!(net.serving_cell(0), 1);
    let gwc = net.sim.node_ref::<GwControl>(net.gwc);
    assert_eq!(gwc.dedicated_reanchored, 1);
    assert_eq!(net.sim.node_ref::<Ue>(net.ues[0]).state, UeState::Connected);
    assert_no_wedge(&net);
    // The retransmission delay is one guard period: pings barely notice.
    let a = net.sim.node_ref::<PingAgent>(agent);
    assert!(a.rtts().len() >= 140, "{} of 150 pings", a.rtts().len());
}

/// Dropping *every* Path Switch Request exhausts the retransmission
/// budget: the target releases the session to the default bearer, and the
/// service-request path restores connectivity through the core detour.
#[test]
fn path_switch_exhaustion_falls_back_to_core_detour() {
    let (net, agent) = walk_under_faults(two_mec_cells(true), |net| {
        let plan =
            FaultPlan::new(1).with_rule(FaultRule::drop(fault_class(&path_switch_request()), 1.0));
        net.sim.attach_fault_plan(net.s1ap_uplink(1), plan);
    });
    let target = net.sim.node_ref::<Enb>(net.enbs[1]);
    assert!(target.ps_retx >= 2, "retransmissions before giving up");
    assert_eq!(target.ps_fallback, 1, "exhaustion must trigger fallback");
    assert_eq!(net.serving_cell(0), 1);
    // The dedicated bearer is gone, but the session recovered: the UE
    // reconnected (uplink data promotes it out of idle) and late pings
    // flow at core-detour latency.
    let ue = net.sim.node_ref::<Ue>(net.ues[0]);
    assert!(!ue.has_dedicated_bearer());
    assert_eq!(ue.state, UeState::Connected);
    // The service-request restore must have flushed the stale core
    // flows (Delete Bearer Command), or downlink replies would keep
    // chasing the released context at the old cell forever.
    let gwc = net.sim.node_ref::<GwControl>(net.gwc);
    assert_eq!(gwc.dedicated_released, 1);
    assert_eq!(gwc.dedicated_active, 0);
    assert_no_wedge(&net);
    let a = net.sim.node_ref::<PingAgent>(agent);
    assert!(
        a.rtts().len() >= 100,
        "{} of 150 pings survived the fallback",
        a.rtts().len()
    );
    let late = &a.rtts()[a.rtts().len() - 10..];
    let series = acacia_simnet::stats::Series::from_durations_ms(late);
    assert!(
        series.median() > 20.0,
        "late pings should ride the core detour, median {} ms",
        series.median()
    );
}

/// Dropping the first X2 Handover Request makes the source eNB's prep
/// guard retransmit it; the handover completes on the second copy.
#[test]
fn nth_handover_request_drop_is_retransmitted() {
    let (net, _) = walk_under_faults(two_mec_cells(false), |net| {
        let plan = FaultPlan::new(1)
            .with_rule(FaultRule::drop(fault_class(&x2_handover_request()), 1.0).on_nth(1));
        net.sim.attach_fault_plan(net.x2_link(0, 1), plan);
    });
    assert_eq!(net.sim.node_ref::<Enb>(net.enbs[0]).ho_retx, 1);
    assert_eq!(net.sim.node_ref::<Enb>(net.enbs[1]).ho_in_done, 1);
    assert_eq!(net.serving_cell(0), 1);
    assert_no_wedge(&net);
}

/// Dropping *every* X2 Handover Request means the target never answers:
/// the source cancels the preparation and keeps serving the UE itself.
#[test]
fn handover_preparation_exhaustion_cancels() {
    let (net, agent) = walk_under_faults(two_mec_cells(false), |net| {
        let plan =
            FaultPlan::new(1).with_rule(FaultRule::drop(fault_class(&x2_handover_request()), 1.0));
        net.sim.attach_fault_plan(net.x2_link(0, 1), plan);
    });
    let source = net.sim.node_ref::<Enb>(net.enbs[0]);
    assert!(source.ho_retx >= 2);
    assert!(source.ho_cancelled >= 1, "preparation must be cancelled");
    // No handover ever executed; the source keeps serving.
    assert_eq!(net.serving_cell(0), 0);
    assert_eq!(net.sim.node_ref::<Enb>(net.enbs[1]).ho_in_done, 0);
    assert_eq!(net.sim.node_ref::<Ue>(net.ues[0]).state, UeState::Connected);
    assert_no_wedge(&net);
    // Service continues from the (now distant) source cell.
    let a = net.sim.node_ref::<PingAgent>(agent);
    assert!(a.rtts().len() >= 140, "{} of 150 pings", a.rtts().len());
}

/// Dropping the RRC Handover Command leaves the UE camped on the source
/// while the network has already switched: T304 expires and RRC
/// re-establishment on the reported target recovers the session.
#[test]
fn lost_handover_command_recovers_via_reestablishment() {
    let (net, agent) = walk_under_faults(two_mec_cells(false), |net| {
        let plan = FaultPlan::new(1)
            .with_rule(FaultRule::drop(fault_class(&rrc_handover_command()), 1.0).on_nth(1));
        net.sim.attach_fault_plan(net.radio_downlink(0, 0), plan);
    });
    let ue = net.sim.node_ref::<Ue>(net.ues[0]);
    assert_eq!(ue.reestablishments, 1, "T304 must trigger re-establishment");
    assert_eq!(net.sim.node_ref::<Enb>(net.enbs[1]).reest_in, 1);
    assert_eq!(net.serving_cell(0), 1);
    assert_eq!(ue.state, UeState::Connected);
    // The re-established leg still completes the path switch.
    assert_eq!(net.sim.node_ref::<Enb>(net.enbs[1]).ho_in_done, 1);
    assert_no_wedge(&net);
    // Recovery costs ~T304 (300 ms) of interruption, visible but bounded.
    let a = net.sim.node_ref::<PingAgent>(agent);
    assert!(a.rtts().len() >= 130, "{} of 150 pings", a.rtts().len());
}

/// Duplicated control messages are idempotent end to end: doubling every
/// X2/S1AP packet changes nothing about the outcome.
#[test]
fn duplicated_control_messages_are_suppressed() {
    let (net, _) = walk_under_faults(two_mec_cells(false), |net| {
        for (endpoint, _) in net.control_fault_points() {
            let plan = FaultPlan::new(1).with_rule(FaultRule::duplicate(PacketClass::any(), 1.0));
            net.sim.attach_fault_plan(endpoint, plan);
        }
    });
    // Exactly one handover, one path switch, one re-anchor — duplicates
    // must not double-count anything.
    assert_eq!(net.sim.node_ref::<Enb>(net.enbs[1]).ho_in_done, 1);
    assert_eq!(net.serving_cell(0), 1);
    let gwc = net.sim.node_ref::<GwControl>(net.gwc);
    assert_eq!(gwc.dedicated_reanchored, 1);
    assert_no_wedge(&net);
}

/// Soak: arbitrary fault schedules on every control link — random
/// The loaded regime composed with control-plane chaos: a 100 Mbit/s
/// core saturated by a 110 Mbit/s best-effort flood while three UEs walk
/// through X2 handovers whose X2 messages are dropped 30% of the time.
/// The recovery ladder and the priority queues must compose — zero
/// wedged UEs, legal end states, and the dedicated-bearer ping streams
/// (which never cross the congested core) keep flowing throughout.
#[test]
fn x2_drops_under_core_congestion_never_wedge() {
    let mut net = LteNetwork::new(LteConfig {
        ue_count: 3,
        core_rate_bps: 100_000_000,
        core_queue_bytes: 12 * 1024 * 1024,
        ..two_mec_cells(true)
    });
    let (_, mec_addr) = net.add_mec_server(Box::new(Reflector::new()));
    let mut agents = Vec::new();
    for i in 0..3 {
        let ue_ip = net.attach(i);
        net.activate_dedicated_bearer(
            i,
            PolicyRule {
                service_id: 9,
                ue_addr: ue_ip,
                server_addr: mec_addr,
                server_port: 0,
                qci: Qci(3),
                install: true,
            },
        );
        let agent = net.connect_ue_app(
            i,
            Box::new(PingAgent::new(
                ue_ip,
                mec_addr,
                Duration::from_millis(100),
                150,
            )),
            AppSelector::protocol(proto::ICMP),
        );
        net.sim
            .schedule_timer(agent, net.sim.now(), PingAgent::KICKOFF);
        agents.push(agent);
    }
    // Congestion on for the whole walk: the core queue fills and stays
    // full, exactly the regime of the loaded experiment.
    let t0 = net.sim.now();
    net.start_background_traffic(110_000_000, t0, t0 + Duration::from_secs(40));
    // X2 drops arm mid-congestion, after attach + bearer setup.
    let start = t0 + Duration::from_secs(1);
    let end = start + Duration::from_secs(86_400);
    for (idx, (endpoint, label)) in net.control_fault_points().into_iter().enumerate() {
        if !label.starts_with("x2[") {
            continue;
        }
        let seed = 42u64.wrapping_add((idx as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let plan = FaultPlan::new(seed)
            .with_rule(FaultRule::drop(PacketClass::any(), 0.3).in_window(start, end));
        net.sim.attach_fault_plan(endpoint, plan);
    }
    for i in 0..3 {
        net.start_mobility(
            i,
            vec![
                Waypoint::passing(Point::new(2.0, 0.0)),
                Waypoint::passing(Point::new(38.0, 0.0)),
            ],
            4.0,
        );
    }
    net.run_for(Duration::from_secs(16));
    // Trailing guard timers resolve: "outstanding" now means wedged.
    net.run_for(Duration::from_secs(4));

    for (i, &enb) in net.enbs.iter().enumerate() {
        assert_eq!(
            net.sim.node_ref::<Enb>(enb).outstanding_handovers(),
            0,
            "eNB {i} left a handover procedure open under congestion + X2 drops"
        );
    }
    for i in 0..3 {
        let ue = net.sim.node_ref::<Ue>(net.ues[i]);
        assert!(
            matches!(ue.state, UeState::Connected | UeState::Idle),
            "UE {i} ended in {:?}",
            ue.state
        );
    }
    // The MEC ping streams rode the dedicated bearers through all of it:
    // every UE keeps a mostly-intact stream (lost pings come only from
    // handover gaps and recovery stalls, never the congested core).
    for (i, &agent) in agents.iter().enumerate() {
        let a = net.sim.node_ref::<PingAgent>(agent);
        assert!(
            a.rtts().len() >= 100,
            "UE {i} answered only {}/{} MEC pings (lost {})",
            a.rtts().len(),
            a.sent(),
            a.lost()
        );
    }
}

/// drop/duplicate/reorder mixes — never panic, never deadlock the clock,
/// and always leave every UE in a legal state with zero open handover
/// procedures. A full LTE walk per case is far heavier than a unit
/// property, so this drives the proptest shim's deterministic per-case
/// RNG directly with a fixed case budget instead of `PROPTEST_CASES`.
#[test]
fn arbitrary_fault_schedules_never_wedge() {
    const CASES: u64 = 8;
    for case in 0..CASES {
        let mut rng = prop::TestRng::for_case("arbitrary_fault_schedules_never_wedge", case);
        let seed = Strategy::generate(&(0u64..1_000), &mut rng);
        let drop_rate = Strategy::generate(&(0.0f64..0.6), &mut rng);
        let dup_rate = Strategy::generate(&(0.0f64..0.4), &mut rng);
        let reorder_rate = Strategy::generate(&(0.0f64..0.4), &mut rng);
        let reorder_ms = Strategy::generate(&(1u64..10), &mut rng);
        let (net, _) = walk_under_faults(two_mec_cells(true), |net| {
            for (idx, (endpoint, _)) in net.control_fault_points().into_iter().enumerate() {
                let mut plan = FaultPlan::new(seed.wrapping_add(idx as u64 * 7919));
                plan.add_rule(FaultRule::drop(PacketClass::any(), drop_rate));
                plan.add_rule(FaultRule::duplicate(PacketClass::any(), dup_rate));
                plan.add_rule(FaultRule::reorder(
                    PacketClass::any(),
                    reorder_rate,
                    Duration::from_millis(reorder_ms),
                ));
                net.sim.attach_fault_plan(endpoint, plan);
            }
        });
        let ctx = format!(
            "case {case}: seed {seed} drop {drop_rate:.2} dup {dup_rate:.2} \
             reorder {reorder_rate:.2}/{reorder_ms}ms"
        );
        // The clock must have advanced through the whole schedule (no
        // deadlock), and nothing may be left half-open.
        assert!(
            net.sim.now() >= acacia_simnet::time::Instant::from_millis(16_000),
            "clock stalled at {:?} ({ctx})",
            net.sim.now()
        );
        for (i, &enb) in net.enbs.iter().enumerate() {
            assert_eq!(
                net.sim.node_ref::<Enb>(enb).outstanding_handovers(),
                0,
                "eNB {i} wedged ({ctx})"
            );
        }
        let ue = net.sim.node_ref::<Ue>(net.ues[0]);
        assert!(
            matches!(ue.state, UeState::Connected | UeState::Idle),
            "UE ended in {:?} ({ctx})",
            ue.state
        );
    }
}
