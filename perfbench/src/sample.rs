//! What one measurement process reports, the line format it reports it
//! in, and the few statistics the benchmark takes over samples.
//!
//! Every timed run happens in a fresh child process (the vision database
//! and rendered-view memos are process-wide, and every real invocation
//! pays for them), so samples cross a process boundary as plain text:
//!
//! ```text
//! v <name> <f64>          a measured or counted value
//! f <name> <hex u64>      a fingerprint of simulated outputs
//! c <name> <0|1> <text>   a named check and its detail
//! h <name> <text>         a host fact
//! ```

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// One named pass/fail verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Did it hold?
    pub ok: bool,
    /// Observed values, for the log.
    pub detail: String,
}

impl Check {
    /// A verdict with its detail.
    pub fn new(name: &str, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        }
    }

    /// `got == want`, with both in the detail.
    pub fn equal<T: PartialEq + fmt::Debug>(name: &str, got: T, want: T) -> Check {
        let ok = got == want;
        Check::new(name, ok, format!("got {got:?}, want {want:?}"))
    }
}

/// Everything one measurement process reports.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Measured or counted values by name.
    pub values: BTreeMap<String, f64>,
    /// Fingerprints of simulated outputs by name.
    pub fingerprints: BTreeMap<String, u64>,
    /// Checks made in the process.
    pub checks: Vec<Check>,
    /// Host facts (core count, shard count, engine driver).
    pub facts: BTreeMap<String, String>,
}

impl Sample {
    /// Record a value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// A value, or NaN when the process did not report it (NaN fails
    /// every later comparison and the finiteness check on output).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(f64::NAN)
    }

    /// Render in the line format.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.values {
            let _ = writeln!(out, "v {k} {v}");
        }
        for (k, v) in &self.fingerprints {
            let _ = writeln!(out, "f {k} {v:016x}");
        }
        for c in &self.checks {
            let detail = c.detail.replace('\n', " ");
            let _ = writeln!(out, "c {} {} {detail}", c.name, u8::from(c.ok));
        }
        for (k, v) in &self.facts {
            let _ = writeln!(out, "h {k} {v}");
        }
        out
    }

    /// Parse the line format; lines that are not records are ignored.
    pub fn parse(text: &str) -> Result<Sample, String> {
        let mut s = Sample::default();
        for line in text.lines() {
            let mut parts = line.splitn(3, ' ');
            let (Some(tag), Some(name), Some(rest)) = (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            let bad = || format!("malformed record: {line}");
            match tag {
                "v" => {
                    s.values
                        .insert(name.into(), rest.parse().map_err(|_| bad())?);
                }
                "f" => {
                    let fp = u64::from_str_radix(rest, 16).map_err(|_| bad())?;
                    s.fingerprints.insert(name.into(), fp);
                }
                "c" => {
                    let (ok, detail) = rest.split_once(' ').unwrap_or((rest, ""));
                    s.checks.push(Check::new(name, ok == "1", detail));
                }
                "h" => {
                    s.facts.insert(name.into(), rest.into());
                }
                _ => {}
            }
        }
        Ok(s)
    }
}

/// FNV-1a over formatted text: a fingerprint of simulated outputs that
/// is stable across processes and builds of the same code.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Fingerprint of a value's `Debug` rendering. `f64` debug output is the
/// shortest round-trip form, so equal fingerprints mean bit-equal floats.
pub fn fingerprint<T: fmt::Debug + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv::default();
    let _ = write!(h, "{value:?}");
    h.0
}

/// Median (mean of the middle two for an even count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of an ascending slice; NaN when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_format_round_trips() {
        let mut s = Sample::default();
        s.set("run_s", 8.125);
        s.set("tiny", 1e-9);
        s.fingerprints.insert("outputs".into(), 0xdead_beef);
        s.checks.push(Check::new("frames", false, "got 1\nwant 2"));
        s.facts.insert("driver".into(), "serial".into());
        let back = Sample::parse(&s.emit()).expect("parses");
        assert_eq!(back.values, s.values);
        assert_eq!(back.fingerprints, s.fingerprints);
        assert_eq!(
            back.checks,
            vec![Check::new("frames", false, "got 1 want 2")]
        );
        assert_eq!(back.facts, s.facts);
        assert!(Sample::parse("v x notanumber").is_err());
    }

    #[test]
    fn statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_ne!(fingerprint(&(1, 2.0)), fingerprint(&(1, 2.000_000_000_1)));
    }
}
