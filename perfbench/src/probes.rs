//! Layer probes: each times one serving layer's public entry point in
//! isolation, at a size the workload sets (unit count, queue depth, mix,
//! planner budget).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use exion_model::config::{IterationPhase, ModelConfig, ModelKind};
use exion_serve::telemetry::StopWatch;
use exion_serve::trace::ArrivalStream;
use exion_serve::{
    AdmitOutcome, CostModel, EventCalendar, EventKind, Instance, Interconnect, PlacementPlanner,
    PlannerConfig, ReadyQueue, Request, SchedContext, SchedulerPolicy, TraceConfig, WorkloadMix,
};
use exion_sim::config::HwConfig;
use exion_sim::perf::SimAblation;
use exion_sim::residency::EvictionPolicy;

use crate::report::median;

/// Arrivals in `trace` and the ms it takes to draw them all from an
/// [`ArrivalStream`].
pub fn trace_gen(trace: &TraceConfig) -> (usize, f64) {
    let t = Instant::now();
    let n = black_box(ArrivalStream::new(trace)).count();
    (n, t.elapsed().as_secs_f64() * 1e3)
}

/// ns per calendar operation for a churn over `units` unit slots: every
/// unit scheduled, then pop-and-reschedule-ahead, superseding a live
/// entry every 16th step (the lazy-invalidation path).
pub fn calendar_ns_per_op(units: usize) -> f64 {
    const STEPS: u64 = 400_000;
    let units = units.max(1);
    let mut cal = EventCalendar::new(units);
    let t = Instant::now();
    for u in 0..units {
        cal.schedule_unit(u, u as f64, EventKind::UnitBoundary);
    }
    let mut ops = units as u64;
    for step in 0..STEPS {
        let ev = cal.pop().expect("units stay scheduled");
        let next = ev.at_ms + 1.0 + (ev.unit % 7) as f64;
        cal.schedule_unit(ev.unit, next, EventKind::UnitBoundary);
        ops += 2;
        if step % 16 == 0 {
            cal.reschedule_unit(ev.unit, next + 0.5, EventKind::UnitBoundary);
            ops += 1;
        }
    }
    black_box(cal.len());
    t.elapsed().as_nanos() as f64 / ops as f64
}

/// `CostModel::iteration` over every (model, batch 1..=8, phase,
/// residency 0 / ½ / 1) point of `kinds`: the point count, µs per cold
/// call (a cycle-level simulation each) and ns per memoized repeat.
pub fn cost(hw: HwConfig, kinds: &[ModelKind]) -> (usize, f64, f64) {
    const REPEATS: usize = 200;
    let configs: Vec<ModelConfig> = kinds.iter().map(|&k| ModelConfig::for_kind(k)).collect();
    let mut model = CostModel::new(hw, SimAblation::All);
    let sweep = |model: &mut CostModel| {
        let mut points = 0;
        for config in &configs {
            for batch in 1..=8 {
                for phase in [IterationPhase::Dense, IterationPhase::Sparse] {
                    for resident in [0.0, 0.5, 1.0] {
                        let cost = model
                            .iteration(config, batch, phase, resident)
                            .expect("batch ≥ 1 and a valid phase price");
                        black_box(cost);
                        points += 1;
                    }
                }
            }
        }
        points
    };
    let t = Instant::now();
    let points = sweep(&mut model);
    let miss_us = t.elapsed().as_secs_f64() * 1e6 / points as f64;
    let t = Instant::now();
    for _ in 0..REPEATS {
        sweep(&mut model);
    }
    let hit_ns = t.elapsed().as_nanos() as f64 / (points * REPEATS) as f64;
    (points, miss_us, hit_ns)
}

/// µs per scheduler boundary decision (`Instance::admit_into` plus the
/// iteration it admits into) on a `depth`-deep ready queue of `kinds`
/// requests with spread deadlines, all released — the shape
/// `benches/scheduler_hot_path.rs` builds. Median of several bursts.
pub fn scheduler_decision_us(
    policy: Arc<dyn SchedulerPolicy>,
    hw: HwConfig,
    kinds: &[ModelKind],
    depth: usize,
) -> f64 {
    const BURST: usize = 64;
    const SAMPLES: usize = 7;
    let depth = depth.max(1);
    let mut cost = CostModel::new(hw, SimAblation::All);
    let ctx = SchedContext::build(
        policy,
        8,
        kinds,
        &mut cost,
        Interconnect::default(),
        ModelConfig::for_kind,
        |_| None,
    );
    let requests: Vec<Request> = (0..depth as u64)
        .map(|id| {
            let kind = kinds[id as usize % kinds.len()];
            let info = ctx.info(kind);
            let steps = info.config.iterations;
            let slo_ms = (1.0 + (id % 17) as f64) * steps as f64 * info.warm_step_ms;
            Request::new(id, kind, 0.1 * id as f64, slo_ms, steps)
        })
        .collect();
    let queue = ReadyQueue::from_requests(requests, &ctx);
    let mut instance = Instance::new(0, &hw, EvictionPolicy::Lru);
    instance.now_ms = 0.1 * (depth - 1) as f64;
    let mut samples = Vec::with_capacity(SAMPLES);
    let mut admitted = AdmitOutcome::default();
    let mut done = Vec::new();
    for _ in 0..SAMPLES {
        let (mut inst, mut q) = (instance.clone(), queue.clone());
        let t = Instant::now();
        for _ in 0..BURST {
            inst.admit_into(&mut q, &ctx, &mut [], &mut admitted);
            if !inst.running.is_empty() {
                done.clear();
                inst.execute_iteration_into(&mut cost, &ctx, &mut done);
            }
        }
        samples.push(t.elapsed().as_secs_f64() * 1e6 / BURST as f64);
        black_box(q.len());
    }
    median(&samples)
}

/// ms of one `PlacementPlanner::plan_timed` call over a `budget`-instance
/// budget for `mix` at `forecast_rps`, with a cold cost model.
pub fn planner_plan_ms(hw: HwConfig, mix: &WorkloadMix, budget: usize, forecast_rps: f64) -> f64 {
    let planner = PlacementPlanner::new(PlannerConfig::new(budget));
    let mut cost = CostModel::new(hw, SimAblation::All);
    let mut watch = StopWatch::new();
    let t = Instant::now();
    black_box(planner.plan_timed(&hw, mix, forecast_rps, &mut cost, &mut watch));
    t.elapsed().as_secs_f64() * 1e3
}
