//! The metric catalogue, operation accounting and the result line.
//!
//! Every metric the benchmark can print is declared here once, with its
//! unit; `BENCHMARK.json` lists the same names and units (a test keeps the
//! two in step). A run records values by name and [`Outcome::to_json`]
//! refuses to print a result that misses a catalogued metric.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A catalogued metric: name and unit.
pub type MetricDef = (&'static str, &'static str);

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s"),
    ("arrivals_per_s", "1/s"),
    ("dense_gmac_per_s", "GMAC/s"),
    ("peak_rss_mb", "MB"),
    ("sim_p999_ms", "ms"),
    ("sim_goodput_rps", "1/s"),
    ("sim_attainment", "share"),
    ("accuracy_cosine_min", "cosine"),
    ("sim_speedup_geomean", "x"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    ("cluster.events", "count"),
    ("cluster.iterations", "count"),
    ("cluster.ns_per_event", "ns"),
    ("cluster.sim_ms_per_wall_ms", "ms/ms"),
    ("calendar.ns_per_op", "ns"),
    ("cost.points", "count"),
    ("cost.miss_us", "us"),
    ("cost.hit_ns", "ns"),
    ("scheduler.decision_us", "us"),
    ("scheduler.peak_queue_depth", "count"),
    ("scheduler.preemptions", "count"),
    ("trace.arrivals", "count"),
    ("trace.gen_ms", "ms"),
    ("attribution.overhead_ms", "ms"),
    ("attribution.queue_share", "share"),
    ("attribution.compute_share", "share"),
    ("attribution.refill_share", "share"),
    ("attribution.fault_stall_share", "share"),
    ("metrics.residency_hit_rate", "share"),
    ("metrics.refill_bytes", "bytes"),
    ("telemetry.sink_overhead_ms", "ms"),
    ("telemetry.spans", "count"),
    ("telemetry.export_ms", "ms"),
    ("planner.calls", "count"),
    ("planner.plan_ms", "ms"),
    ("fault.injected", "count"),
    ("fault.lost", "count"),
    ("fault.checkpoint_spills", "count"),
    ("fault.replans", "count"),
    ("model.gen_ms.vanilla", "ms"),
    ("model.gen_ms.ffn_reuse", "ms"),
    ("model.gen_ms.ep", "ms"),
    ("model.gen_ms.ffn_reuse_ep", "ms"),
    ("ffn_reuse.mac_ratio", "ratio"),
    ("ffn_reuse.inter_sparsity", "share"),
    ("ep.intra_sparsity", "share"),
    ("ep.q_skip", "share"),
    ("ep.kv_skip", "share"),
    ("conmerge.compact_ms", "ms"),
    ("conmerge.ffn_block_frac", "share"),
    ("conmerge.attn_block_frac", "share"),
    ("sim.simulate_ms", "ms"),
    ("sim.latency_ms.all", "ms"),
    ("trace_overhead_pct", "%"),
    ("observer_purity", "count"),
];

/// Operation accounting, check failures and recorded metric values of
/// one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Calls into the program attempted.
    pub attempted: u64,
    /// Calls that panicked or failed their output check.
    pub failed: u64,
    /// What went wrong, for the error stream.
    pub errors: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Runs one call into the program, counting it; a panic counts as a
    /// failed operation and yields `None`.
    pub fn op<R>(&mut self, what: &str, f: impl FnOnce() -> R) -> Option<R> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(r) => Some(r),
            Err(_) => {
                self.failed += 1;
                self.errors.push(format!("{what}: panicked"));
                None
            }
        }
    }

    /// Books the output check of the last operation: any error fails it.
    pub fn verify(&mut self, what: &str, errors: Vec<String>) {
        if !errors.is_empty() {
            self.failed += 1;
            self.errors
                .extend(errors.into_iter().map(|e| format!("{what}: {e}")));
        }
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Whether every operation passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// The result line over the catalogue `defs`, or why it cannot be
    /// printed (a catalogued metric missing or not finite).
    pub fn to_json(&self, defs: &[MetricDef]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, &(name, unit)) in defs.iter().enumerate() {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Windows a measured run's set-ups are grouped into, in time.
pub const SETUP_WINDOWS: usize = 3;

/// The set-up times of one measured run, reduced to `setup_s`.
///
/// A set-up takes milliseconds and is bound by the memory system, whose
/// speed on a shared host swings by up to 2× in phases of a fraction of a
/// second to minutes, while register-bound loops keep their speed. A plain
/// median of the samples follows whichever phase held most of the run, so
/// the run is cut into [`SETUP_WINDOWS`] equal windows, each keeps its
/// fastest set-up, and `setup_s` is the median of those.
#[derive(Debug)]
pub struct SetupTimes {
    start: Instant,
    window_s: f64,
    fastest_s: [f64; SETUP_WINDOWS],
}

impl SetupTimes {
    /// Starts the clock of a run that measures for `seconds`.
    pub fn new(seconds: f64) -> Self {
        Self {
            start: Instant::now(),
            window_s: seconds / SETUP_WINDOWS as f64,
            fastest_s: [f64::INFINITY; SETUP_WINDOWS],
        }
    }

    /// Runs one set-up as an operation of `outcome` and books its time.
    pub fn time<R>(&mut self, outcome: &mut Outcome, f: impl FnOnce() -> R) -> Option<R> {
        let at_s = self.start.elapsed().as_secs_f64();
        let t = Instant::now();
        let r = outcome.op("setup", f);
        self.record(at_s, t.elapsed().as_secs_f64());
        r
    }

    /// Books a set-up that started `at_s` into the run and took `took_s`.
    fn record(&mut self, at_s: f64, took_s: f64) {
        let window = if self.window_s > 0.0 {
            ((at_s / self.window_s) as usize).min(SETUP_WINDOWS - 1)
        } else {
            0
        };
        self.fastest_s[window] = self.fastest_s[window].min(took_s);
    }

    /// Median over the windows that saw a set-up of their fastest one.
    pub fn median_s(&self) -> f64 {
        let seen: Vec<f64> = self
            .fastest_s
            .iter()
            .copied()
            .filter(|s| s.is_finite())
            .collect();
        median(&seen)
    }
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Exact nearest-rank `q`-quantile of `values` (0 for an empty slice).
pub fn nearest_rank(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).copied().unwrap_or(0.0)
}

/// Geometric mean of positive `values` (0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_metrics_block_the_result_line() {
        let mut o = Outcome::default();
        o.op("noop", || ());
        assert!(o.to_json(&[("x", "ms")]).is_err());
        o.set("x", 1.5);
        let line = o.to_json(&[("x", "ms")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"x\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        o.set("x", f64::NAN);
        assert!(o.to_json(&[("x", "ms")]).is_err());
    }

    #[test]
    fn panics_and_check_failures_count_as_failed_ops() {
        let mut o = Outcome::default();
        assert_eq!(o.op("boom", || panic!("x")), None::<()>);
        o.op("fine", || ());
        o.verify("fine", vec!["off by one".into()]);
        assert_eq!((o.attempted, o.failed), (2, 2));
        assert!(!o.correct());
    }

    #[test]
    fn setup_s_is_the_median_of_window_minima() {
        let mut t = SetupTimes::new(30.0);
        assert_eq!(t.median_s(), 0.0);
        // Windows of 10 s: minima 2, 5 and 3 (a late sample lands in the
        // last window).
        for (at, took) in [
            (0.0, 4.0),
            (9.9, 2.0),
            (10.0, 5.0),
            (25.0, 7.0),
            (31.0, 3.0),
        ] {
            t.record(at, took);
        }
        assert_eq!(t.median_s(), 3.0);
        // A zero-length run books everything into one window.
        let mut t = SetupTimes::new(0.0);
        t.record(1.0, 6.0);
        t.record(2.0, 4.0);
        assert_eq!(t.median_s(), 4.0);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.95), 19.0);
        assert_eq!(nearest_rank(&v[..7], 0.95), 7.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    /// `BENCHMARK.json` at the repository root lists exactly the
    /// catalogued metrics, each with the catalogued unit.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name} ({unit}) missing");
        }
        let listed = json.matches("\"name\": ").count();
        // Workloads carry a name too.
        let workloads = json.matches("\"why\": ").count();
        assert_eq!(listed - workloads, END_TO_END.len() + PER_LAYER.len());
    }
}
