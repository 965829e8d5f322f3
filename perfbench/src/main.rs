//! End-to-end and per-layer benchmark of the EXION reproduction: the
//! serving core (`exion-serve`) on three serving workloads and the paper
//! stack (`exion-model`, `exion-core`, `exion-tensor`, `exion-sim`) on
//! the paper's own flow. See `README.md` beside this crate.
//!
//! ```text
//! exion-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics untraced,
//! the per-layer metrics traced. A failed output check exits with 1.

mod paper;
mod probes;
mod report;
mod serving;
mod spans;

use std::process::ExitCode;
use std::time::Instant;

use exion_model::config::ModelKind;
use exion_sim::config::HwConfig;

use paper::PaperSpec;
use report::{Outcome, SetupTimes, END_TO_END, PER_LAYER};
use serving::{Serving, ServingSpec};
use spans::Tracer;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// Mixes `salt` into `seed` (SplitMix64 finaliser), so every trace, fault
/// plan and pipeline seed is a distinct function of the one seed argument.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Serving(Serving),
    PaperPipeline,
}

const WORKLOADS: [(&str, Workload); 4] = [
    ("fleet_steady", Workload::Serving(Serving::FleetSteady)),
    ("deep_backlog", Workload::Serving(Serving::DeepBacklog)),
    ("replan_chaos", Workload::Serving(Serving::ReplanChaos)),
    ("paper_pipeline", Workload::PaperPipeline),
];

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|(name, _)| name == value)
                        .map(|&(_, w)| w)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err(format!("--seconds {value}: not a duration"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Workload sizes: the defaults, or smaller ones for tests.
#[derive(Debug, Clone, Copy, Default)]
struct Sizes {
    /// Arrivals of every serving trace.
    arrivals: Option<usize>,
    /// `(factor, max_iters)` shrink of every model.
    shrink: Option<(usize, usize)>,
}

impl Sizes {
    fn serving(&self, workload: Serving, seed: u64) -> ServingSpec {
        ServingSpec {
            arrivals: self.arrivals.unwrap_or(workload.default_arrivals()),
            ..ServingSpec::new(workload, seed)
        }
    }

    /// The paper flow of the models a serving workload serves, on its
    /// hardware: the quality and simulated speedup of what it serves.
    fn served_models(&self, spec: &ServingSpec) -> PaperSpec {
        let s = serving::setup(spec, true);
        PaperSpec {
            kinds: s.trace.mix.kinds(),
            hw: s.config.hw,
            seed: spec.seed,
            shrink: self.shrink,
        }
    }

    /// The paper flow of all seven models on exion24.
    fn paper(&self, seed: u64) -> PaperSpec {
        PaperSpec {
            kinds: ModelKind::ALL.to_vec(),
            hw: HwConfig::exion24(),
            seed,
            shrink: self.shrink,
        }
    }
}

/// Records the quality metrics of one paper pass.
fn record_quality(pass: &paper::PassResult, outcome: &mut Outcome) {
    outcome.set("accuracy_cosine_min", pass.cosine_min());
    outcome.set("sim_speedup_geomean", pass.speedup_geomean());
}

/// Timed passes of the paper flow until `seconds` have passed (at least
/// twice), each over freshly built pipelines.
fn measure_paper(spec: &PaperSpec, seconds: f64, outcome: &mut Outcome) {
    let start = Instant::now();
    let mut setups = SetupTimes::new(seconds);
    for _ in 0..serving::EXTRA_SETUPS {
        setups.time(outcome, || paper::build_pipelines(spec));
    }
    // Each model's fastest flow over the passes, for the reason
    // `serving::measure` reads throughput off its fastest run.
    let mut fastest_s = vec![f64::INFINITY; spec.kinds.len()];
    let mut first: Option<paper::PassResult> = None;
    let mut passes = 0;
    while passes < 2 || start.elapsed().as_secs_f64() < seconds {
        let Some(mut pipelines) = setups.time(outcome, || paper::build_pipelines(spec)) else {
            return;
        };
        // A pass takes seconds; a set-up between its models keeps the
        // windows of `setups` sampled every few hundred milliseconds.
        let Some((pass, wall_s)) = paper::run_pass(
            &mut pipelines,
            &spec.hw,
            &mut Tracer::new(false),
            outcome,
            |outcome| {
                setups.time(outcome, || paper::build_pipelines(spec));
            },
        ) else {
            return;
        };
        passes += 1;
        for (best, w) in fastest_s.iter_mut().zip(wall_s) {
            *best = best.min(w);
        }
        match &first {
            Some(f) => {
                if *f != pass {
                    outcome.verify("pass", vec!["a repeated pass gave other outputs".into()]);
                }
            }
            None => {
                record_quality(&pass, outcome);
                outcome.set("sim_p999_ms", pass.sim_p999_ms());
                outcome.set("sim_goodput_rps", pass.sim_goodput_rps());
                outcome.set("sim_attainment", pass.sim_attainment());
                first = Some(pass);
            }
        }
    }
    let Some(pass) = first else {
        return;
    };
    let pass_s: f64 = fastest_s.iter().sum();
    outcome.set("setup_s", setups.median_s());
    outcome.set("arrivals_per_s", pass.generations() as f64 / pass_s);
    outcome.set("dense_gmac_per_s", pass.dense_gmac() / pass_s);
}

/// The traced paper-stack section: a pass untraced and a pass traced,
/// the single-technique generations, and the per-layer paper metrics.
/// Returns the traced pass's overhead over the untraced one, in percent.
fn record_paper_layers(
    spec: &PaperSpec,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Option<f64> {
    let mut pipelines = paper::build_pipelines(spec);
    let t = Instant::now();
    paper::run_pass(
        &mut pipelines,
        &spec.hw,
        &mut Tracer::new(false),
        outcome,
        |_| {},
    )?;
    let untraced_s = t.elapsed().as_secs_f64();
    let mut pipelines = paper::build_pipelines(spec);
    let t = Instant::now();
    let (pass, _) = tracer.span("paper.pass", |tracer| {
        paper::run_pass(&mut pipelines, &spec.hw, tracer, outcome, |_| {})
    })?;
    let traced_s = t.elapsed().as_secs_f64();
    paper::run_single_technique_generations(spec, tracer, outcome);
    paper::record_layers(&pass, tracer, outcome);
    Some(100.0 * (traced_s / untraced_s - 1.0))
}

fn run(args: &Args, sizes: Sizes, tracer: &mut Tracer, outcome: &mut Outcome) {
    match (args.workload, args.trace) {
        (Workload::Serving(w), false) => {
            let spec = sizes.serving(w, args.seed);
            serving::measure(&spec, args.seconds, outcome);
            let quality = sizes.served_models(&spec);
            let mut pipelines = paper::build_pipelines(&quality);
            if let Some((pass, _)) = paper::run_pass(
                &mut pipelines,
                &quality.hw,
                &mut Tracer::new(false),
                outcome,
                |_| {},
            ) {
                record_quality(&pass, outcome);
            }
        }
        (Workload::Serving(w), true) => {
            let spec = sizes.serving(w, args.seed);
            serving::record_layers(&spec, tracer, outcome);
            record_paper_layers(&sizes.served_models(&spec), tracer, outcome);
        }
        (Workload::PaperPipeline, false) => {
            measure_paper(&sizes.paper(args.seed), args.seconds, outcome);
        }
        (Workload::PaperPipeline, true) => {
            // The timed paper flow runs no serving layer; its traced run
            // measures the serving layers on the small probe workload.
            let probe = sizes.serving(Serving::Probe, args.seed);
            serving::record_layers(&probe, tracer, outcome);
            if let Some(pct) = record_paper_layers(&sizes.paper(args.seed), tracer, outcome) {
                outcome.set("trace_overhead_pct", pct);
            }
        }
    }
    outcome.set("peak_rss_mb", report::peak_rss_mb());
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: exion-perfbench --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
                WORKLOADS.map(|(n, _)| n).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(args.trace);
    run(&args, Sizes::default(), &mut tracer, &mut outcome);
    if args.trace {
        eprintln!(
            "{:<28} {:>6} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, count, total, self_ms) in tracer.summary() {
            eprintln!("{name:<28} {count:>6} {total:>12.3} {self_ms:>12.3}");
        }
    }
    for e in &outcome.errors {
        eprintln!("check failed: {e}");
    }
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    match outcome.to_json(defs) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&argv(
            "--workload deep_backlog --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::Serving(Serving::DeepBacklog));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3.0, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload paper_pipeline --trace 2")).is_err());
        assert!(parse_args(&argv("--workload paper_pipeline --seconds")).is_err());
    }

    /// Every workload, untraced and traced, at tiny sizes: all checks
    /// pass and the result line carries every catalogued metric with its
    /// unit.
    #[test]
    fn every_metric_is_printed_with_its_unit() {
        let sizes = Sizes {
            arrivals: Some(200),
            shrink: Some((4, 4)),
        };
        for (name, workload) in WORKLOADS {
            for trace in [false, true] {
                let args = Args {
                    workload,
                    seed: 11,
                    seconds: 0.0,
                    trace,
                };
                let mut outcome = Outcome::default();
                run(&args, sizes, &mut Tracer::new(trace), &mut outcome);
                assert!(outcome.correct(), "{name}: {:?}", outcome.errors);
                let defs = if trace { PER_LAYER } else { END_TO_END };
                let line = outcome.to_json(defs).expect("every metric measured");
                for (metric, unit) in defs {
                    let unit = format!("\"unit\": \"{unit}\"");
                    let at = line
                        .find(&format!("\"{metric}\": {{\"value\": "))
                        .unwrap_or_else(|| panic!("{name}: {metric} missing"));
                    assert!(line[at..].split('}').next().unwrap().contains(&unit));
                }
            }
        }
    }

    #[test]
    fn derived_seeds_differ_by_seed_and_salt() {
        assert_ne!(derive_seed(1, 7), derive_seed(2, 7));
        assert_ne!(derive_seed(1, 7), derive_seed(1, 8));
        assert_eq!(derive_seed(3, 4), derive_seed(3, 4));
    }
}
