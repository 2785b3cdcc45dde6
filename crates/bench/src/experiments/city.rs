//! The city-scale sharding benchmark: one 16-cell / 2048-UE scenario
//! run at every shard count, proving parity and measuring scaling.
//!
//! Not a figure of the original paper — it measures the harness. The
//! `city` scenario (8 MEC regions × 2 cells × 256 walking UEs sharing
//! one LTE core) is the workload the sharded event engine exists for;
//! this experiment runs the *same* configuration at `--shards`
//! {1, 2, 4, 8} and prints one table row per shard count. Every
//! deterministic column must be identical across the rows — the table
//! itself is a parity check: a sharded run that diverged from the
//! single-threaded engine shows up as a row that doesn't match.
//!
//! Stdout carries only deterministic columns (byte-identical across
//! `--jobs` and `--shards` values, like every other experiment).
//! Wall-clock throughput and per-shard speedup go to stderr and to
//! `BENCH_city.json` at the workspace root, which CI parses for the
//! events/s floor.

use crate::runner;
use crate::table::{fmt_secs, Table};
use acacia::city::{CityConfig, CityReport, CityScenario};

/// Shard counts swept by the benchmark.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One executed cell: the deterministic report plus its wall-clock.
pub struct CityCell {
    /// Shard count the engine ran with.
    pub shards: usize,
    /// The scenario's deterministic outcome.
    pub report: CityReport,
    /// Wall-clock seconds the cell took (non-deterministic; kept off
    /// stdout).
    pub wall_s: f64,
}

impl CityCell {
    /// Engine throughput: events dispatched per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.report.events_processed as f64 / self.wall_s.max(1e-9)
    }
}

/// Run one city configuration at every shard count, serially (the shard
/// count is a process-wide engine knob, so cells must not overlap). The
/// knob in effect before the sweep — the `--shards` flag — is restored
/// afterwards so later experiments honour it.
fn sweep(cfg: &CityConfig) -> Vec<CityCell> {
    let prev = acacia_simnet::default_shards();
    let mut cells = Vec::with_capacity(SHARD_COUNTS.len());
    for &shards in &SHARD_COUNTS {
        acacia_simnet::set_default_shards(Some(shards));
        let cfg = cfg.clone();
        let mut ran = runner::pmap("city", vec![(format!("shards={shards}"), cfg)], |cfg| {
            let t0 = std::time::Instant::now();
            let report = CityScenario::build(cfg).run();
            runner::report_events(report.events_processed);
            runner::report_shard_events(&report.events_by_shard);
            CityCell {
                shards,
                report,
                wall_s: t0.elapsed().as_secs_f64(),
            }
        });
        cells.push(ran.remove(0));
    }
    acacia_simnet::set_default_shards(Some(prev));
    cells
}

/// City sweep data at the benchmark configuration.
pub fn city_reports() -> Vec<CityCell> {
    sweep(&CityConfig::figure())
}

/// City: shard-parity table and events/s scaling for the 2048-UE city.
pub fn city() -> Table {
    let cells = city_reports();
    let mut t = Table::new(
        "City — sharded engine parity and scaling (8 regions, 16 cells, 2048 UEs)",
        &[
            "shards",
            "frames",
            "handovers",
            "x2 msgs",
            "s1ap msgs",
            "gtp-c msgs",
            "reanchors",
            "wedged",
            "events",
            "xshard",
            "sim time",
        ],
    );
    for c in &cells {
        let r = &c.report;
        let frames_done: u64 = r.ues.iter().map(|u| u.frames_done).sum();
        assert!(
            r.cross_shard_conserved(),
            "shards={}: cross-shard exchange lost events ({} sent, {} received)",
            c.shards,
            r.cross_shard_sent,
            r.cross_shard_received
        );
        t.row(vec![
            c.shards.to_string(),
            format!("{}/{}", frames_done, r.frames_requested * r.ue_count as u64),
            r.total_handovers().to_string(),
            r.x2_msgs.to_string(),
            r.s1ap_msgs.to_string(),
            r.gtpc_msgs.to_string(),
            r.dedicated_reanchored.to_string(),
            r.wedged().to_string(),
            r.events_processed.to_string(),
            r.cross_shard_received.to_string(),
            fmt_secs(r.sim_elapsed.secs_f64()),
        ]);
    }
    t.note("the same 2048-UE city runs once per shard count; every column except 'shards'");
    t.note("and 'xshard' must be identical across rows (the table is a live parity check)");
    t.note("and 'wedged' must be 0; throughput and speedup go to stderr + BENCH_city.json");

    // Wall-clock scaling is machine-dependent: stderr + JSON only, so
    // stdout stays byte-identical across runs, --jobs, and --shards.
    let base = cells
        .iter()
        .find(|c| c.shards == 1)
        .map(|c| c.events_per_sec())
        .unwrap_or(0.0);
    for c in &cells {
        eprintln!(
            "city shards={}: {} events in {:.2}s wall ({:.0} events/s, {:.2}x single-thread)",
            c.shards,
            c.report.events_processed,
            c.wall_s,
            c.events_per_sec(),
            c.events_per_sec() / base.max(1e-9)
        );
    }
    runner::write_bench_json("BENCH_city.json", &render_json(&cells));
    t
}

/// Hand-rolled JSON (the bench crate deliberately has no serde): every
/// value is an integer, a float formatted with `{:.N}`, or an integer
/// array, so no string escaping is needed.
fn render_json(cells: &[CityCell]) -> String {
    let base = cells
        .iter()
        .find(|c| c.shards == 1)
        .map(|c| c.events_per_sec())
        .unwrap_or(0.0);
    let mut out = format!(
        "{{\n  \"experiment\": \"city\",\n  \"cpu_count\": {},\n  \"cells\": [\n",
        runner::cpu_count()
    );
    for (i, c) in cells.iter().enumerate() {
        let r = &c.report;
        let frames_done: u64 = r.ues.iter().map(|u| u.frames_done).sum();
        let by_shard: Vec<String> = r.events_by_shard.iter().map(|n| n.to_string()).collect();
        out.push_str(&format!(
            concat!(
                "    {{\"shards\": {}, \"ue_count\": {}, \"frames_done\": {}, ",
                "\"frames_requested\": {}, \"handovers\": {}, \"x2_msgs\": {}, ",
                "\"s1ap_msgs\": {}, \"gtpc_msgs\": {}, \"dedicated_reanchored\": {}, ",
                "\"wedged\": {}, \"events_processed\": {}, \"events_by_shard\": [{}], ",
                "\"cross_shard_sent\": {}, \"cross_shard_received\": {}, ",
                "\"sim_elapsed_s\": {:.3}, \"wall_s\": {:.3}, \"events_per_sec\": {:.0}, ",
                "\"speedup\": {:.3}}}{}\n"
            ),
            c.shards,
            r.ue_count,
            frames_done,
            r.frames_requested * r.ue_count as u64,
            r.total_handovers(),
            r.x2_msgs,
            r.s1ap_msgs,
            r.gtpc_msgs,
            r.dedicated_reanchored,
            r.wedged(),
            r.events_processed,
            by_shard.join(", "),
            r.cross_shard_sent,
            r.cross_shard_received,
            r.sim_elapsed.secs_f64(),
            c.wall_s,
            c.events_per_sec(),
            c.events_per_sec() / base.max(1e-9),
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke-size sweep: the deterministic report must be identical
    /// at every shard count, and the JSON must be structurally sound.
    #[test]
    fn smoke_sweep_is_shard_invariant_and_json_is_well_formed() {
        let mut cfg = CityConfig::smoke();
        cfg.ues_per_region = 2;
        cfg.frame_count = 2;
        let cells = sweep(&cfg);
        assert_eq!(cells.len(), SHARD_COUNTS.len());
        let fingerprint = |c: &CityCell| {
            let r = &c.report;
            (
                r.ues
                    .iter()
                    .map(|u| (u.frames_done, u.handovers, u.retransmissions))
                    .collect::<Vec<_>>(),
                r.x2_msgs,
                r.s1ap_msgs,
                r.gtpc_msgs,
                r.dedicated_reanchored,
                r.events_processed,
                r.sim_elapsed,
            )
        };
        let base = fingerprint(&cells[0]);
        for c in &cells[1..] {
            assert_eq!(
                fingerprint(c),
                base,
                "shards={} diverged from shards=1",
                c.shards
            );
            assert!(c.report.cross_shard_conserved());
        }
        assert_eq!(
            cells[0].report.cross_shard_sent, 0,
            "one shard, no exchange"
        );
        assert!(cells.last().unwrap().report.cross_shard_sent > 0);

        let json = render_json(&cells);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"shards\"").count(), SHARD_COUNTS.len());
        assert!(json.contains("\"wedged\": 0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
