//! Output checks: what a run's simulated outputs must be.
//!
//! * At seed 42 the `city` input must reproduce the deterministic columns
//!   recorded in `BENCH_city.json`'s `shards: 1` cell. The engine's event
//!   count is left out on purpose: it is engine-internal, and a change to
//!   the engine may legitimately move it without moving any output.
//! * At every seed: every session completes, cross-shard exchange loses
//!   nothing, and the cross-process invariants the orchestrator checks
//!   (see `orchestrate.rs`) hold.

use crate::sample::Check;
use acacia::city::CityReport;
use serde::{find_field, Value};

/// The deterministic columns of a city run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CityColumns {
    /// UEs that ran.
    pub ue_count: usize,
    /// Frames completed, all sessions.
    pub frames_done: u64,
    /// Frames requested, all sessions.
    pub frames_requested: u64,
    /// Handovers, all UEs.
    pub handovers: u64,
    /// X2AP messages.
    pub x2_msgs: u64,
    /// S1AP messages.
    pub s1ap_msgs: u64,
    /// GTPv2-C messages.
    pub gtpc_msgs: u64,
    /// Dedicated bearers re-anchored.
    pub dedicated_reanchored: u64,
    /// Sessions short of their frames.
    pub wedged: usize,
    /// Simulated run length, ms.
    pub sim_elapsed_ms: u64,
}

impl CityColumns {
    /// The columns of a report.
    pub fn of(r: &CityReport) -> CityColumns {
        CityColumns {
            ue_count: r.ue_count,
            frames_done: r.ues.iter().map(|u| u.frames_done).sum(),
            frames_requested: r.frames_requested * r.ue_count as u64,
            handovers: r.total_handovers(),
            x2_msgs: r.x2_msgs,
            s1ap_msgs: r.s1ap_msgs,
            gtpc_msgs: r.gtpc_msgs,
            dedicated_reanchored: r.dedicated_reanchored,
            wedged: r.wedged(),
            sim_elapsed_ms: r.sim_elapsed.millis(),
        }
    }
}

/// `BENCH_city.json` as `figures city` recorded it (seed 42).
const BENCH_CITY: &str = include_str!("../../BENCH_city.json");

/// The deterministic columns of `BENCH_city.json`'s `shards: 1` cell.
pub fn recorded_city() -> Result<CityColumns, String> {
    let doc = serde_json::parse_value(BENCH_CITY.as_bytes())
        .map_err(|e| format!("BENCH_city.json: {e:?}"))?;
    let field = |v: &Value, key: &str| -> Option<Value> { find_field(v.as_obj()?, key).cloned() };
    let Some(Value::Arr(cells)) = field(&doc, "cells") else {
        return Err("BENCH_city.json: no cells".into());
    };
    let cell = cells
        .iter()
        .find(|c| matches!(field(c, "shards"), Some(Value::U64(1))))
        .ok_or("BENCH_city.json: no shards:1 cell")?;
    let int = |key: &str| match field(cell, key) {
        Some(Value::U64(v)) => Ok(v),
        other => Err(format!("BENCH_city.json shards:1 {key}: {other:?}")),
    };
    let sim_elapsed_s = match field(cell, "sim_elapsed_s") {
        Some(Value::F64(v)) => v,
        Some(Value::U64(v)) => v as f64,
        other => return Err(format!("BENCH_city.json shards:1 sim_elapsed_s: {other:?}")),
    };
    Ok(CityColumns {
        ue_count: int("ue_count")? as usize,
        frames_done: int("frames_done")?,
        frames_requested: int("frames_requested")?,
        handovers: int("handovers")?,
        x2_msgs: int("x2_msgs")?,
        s1ap_msgs: int("s1ap_msgs")?,
        gtpc_msgs: int("gtpc_msgs")?,
        dedicated_reanchored: int("dedicated_reanchored")?,
        wedged: int("wedged")? as usize,
        sim_elapsed_ms: (sim_elapsed_s * 1e3).round() as u64,
    })
}

/// The seed the recorded columns belong to.
pub const GOLDEN_SEED: u64 = 42;

/// A second seed, never used while writing a change, on which every
/// check and invariant must hold as well (`--verify` runs both).
pub const HELD_OUT_SEED: u64 = 20_161_212;

/// Compare a city report with the recorded columns.
pub fn city_golden(r: &CityReport, want: &CityColumns) -> Check {
    Check::equal(CITY_GOLDEN, CityColumns::of(r), *want)
}

/// Compare a city report with `BENCH_city.json`'s `shards: 1` cell; an
/// unreadable record fails the check.
pub fn city_recorded(r: &CityReport) -> Check {
    match recorded_city() {
        Ok(want) => city_golden(r, &want),
        Err(why) => Check::new(CITY_GOLDEN, false, why),
    }
}

const CITY_GOLDEN: &str = "city_matches_recorded_seed42";
