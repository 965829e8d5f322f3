//! The paper stack's own flow, per model: a Vanilla generation, an
//! FFN-Reuse+EP generation with mask capture, ConMerge compaction of the
//! captured masks, the measured sparsity profile, and the cycle-level
//! simulation of the Base and All ablations (Table I, Figs. 17–19).

use std::time::Instant;

use exion_core::conmerge::{CompactionConfig, TileCompactor};
use exion_core::{Bitmask2D, OpCounts};
use exion_model::config::{ModelConfig, ModelKind};
use exion_model::pipeline::{Ablation, GenerationPipeline};
use exion_sim::config::HwConfig;
use exion_sim::perf::{simulate_model, SimAblation};
use exion_sim::workload::SparsityProfile;
use exion_tensor::stats::cosine_similarity;
use exion_tensor::Matrix;

use crate::derive_seed;
use crate::report::{geomean, nearest_rank, Outcome};
use crate::spans::Tracer;

/// Lowest accepted cosine between an FFN-Reuse+EP output and the Vanilla
/// output of the same model, prompt and noise.
pub const COSINE_FLOOR: f64 = 0.95;

const PROMPT: &str = "a corgi dog surfed the waves with a bright yellow surfboard";

/// Which models the flow covers, on which hardware, from which seed.
#[derive(Debug, Clone)]
pub struct PaperSpec {
    /// Models, in order.
    pub kinds: Vec<ModelKind>,
    /// Hardware the cycle-level simulation runs on.
    pub hw: HwConfig,
    /// Seed every pipeline and noise seed derives from.
    pub seed: u64,
    /// `(factor, max_iters)` shrink of every model (tests only).
    pub shrink: Option<(usize, usize)>,
}

impl PaperSpec {
    fn config(&self, kind: ModelKind) -> ModelConfig {
        let config = ModelConfig::for_kind(kind);
        match self.shrink {
            Some((factor, iters)) => config.shrunk(factor, iters),
            None => config,
        }
    }

    fn seeds(&self, kind: ModelKind) -> (u64, u64) {
        let tag = kind as u64;
        (
            derive_seed(self.seed, 0x5EED_0000 + tag),
            derive_seed(self.seed, 0x401E_0000 + tag),
        )
    }
}

/// One model's pipelines, built in set-up.
pub struct ModelPipelines {
    config: ModelConfig,
    noise_seed: u64,
    vanilla: GenerationPipeline,
    reuse_ep: GenerationPipeline,
}

/// Builds the Vanilla and FFN-Reuse+EP (mask capture) pipelines of every
/// model of `spec`.
pub fn build_pipelines(spec: &PaperSpec) -> Vec<ModelPipelines> {
    spec.kinds
        .iter()
        .map(|&kind| {
            let config = spec.config(kind);
            let (seed, noise_seed) = spec.seeds(kind);
            ModelPipelines {
                config,
                noise_seed,
                vanilla: GenerationPipeline::new(&config, Ablation::Vanilla.policy(&config), seed),
                reuse_ep: GenerationPipeline::new(
                    &config,
                    Ablation::FfnReuseEp.policy(&config).with_mask_capture(),
                    seed,
                ),
            }
        })
        .collect()
}

/// What one model's flow produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelResult {
    /// The model.
    pub kind: ModelKind,
    /// Cosine of the FFN-Reuse+EP output against the Vanilla output.
    pub cosine: f64,
    /// MACs of the Vanilla generation.
    pub vanilla_ops: OpCounts,
    /// MACs of the FFN-Reuse+EP generation.
    pub reuse_ep_ops: OpCounts,
    /// FFN MACs of the FFN-Reuse+EP generation.
    pub reuse_ep_ffn_ops: OpCounts,
    /// Measured inter-iteration (FFN) sparsity.
    pub inter_sparsity: f64,
    /// Measured intra-iteration (attention score) sparsity.
    pub intra_sparsity: f64,
    /// Q-projection skip fraction.
    pub q_skip: f64,
    /// KV-projection skip fraction.
    pub kv_skip: f64,
    /// FFN blocks left after ConMerge.
    pub ffn_block_frac: f64,
    /// Attention blocks left after ConMerge.
    pub attn_block_frac: f64,
    /// Simulated latency without sparsity (ms).
    pub base_ms: f64,
    /// Simulated latency with FFN-Reuse + EP + ConMerge (ms).
    pub all_ms: f64,
    /// FNV fold of both outputs' bits.
    pub output_hash: u64,
}

fn fold_outputs(outputs: [&Matrix; 2]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for m in outputs {
        for v in m.as_slice() {
            h ^= v.to_bits() as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// ConMerge summary of a set of masks: mean remaining-block fraction,
/// block utilization and condense-only (weight) fraction.
#[derive(Debug, Clone, Copy)]
struct Compaction {
    block_frac: f64,
    utilization: f64,
    weight_frac: f64,
}

fn compact_all(masks: &[&Bitmask2D], outcome: &mut Outcome) -> Compaction {
    let compactor = TileCompactor::new(CompactionConfig::default());
    let mut sum = Compaction {
        block_frac: 0.0,
        utilization: 0.0,
        weight_frac: 0.0,
    };
    for m in masks {
        if let Some(r) = outcome.op("conmerge.compact_matrix", || compactor.compact_matrix(m)) {
            sum.block_frac += r.remaining_column_fraction();
            sum.utilization += r.mean_block_utilization;
            sum.weight_frac += r.condense_only_fraction();
        }
    }
    let n = masks.len().max(1) as f64;
    Compaction {
        block_frac: sum.block_frac / n,
        utilization: sum.utilization / n,
        weight_frac: sum.weight_frac / n,
    }
}

/// Runs the flow of one model on its prebuilt pipelines.
fn run_model(
    p: &mut ModelPipelines,
    hw: &HwConfig,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Option<ModelResult> {
    let name = p.config.kind.name();
    let noise = p.noise_seed;
    let (reference, vanilla_report) = tracer.span("model.vanilla", |_| {
        outcome.op(name, || p.vanilla.generate(PROMPT, noise))
    })?;
    let (out, report) = tracer.span("model.ffn_reuse_ep", |_| {
        outcome.op(name, || p.reuse_ep.generate(PROMPT, noise))
    })?;
    let (ffn, attn) = tracer.span("conmerge.compact", |_| {
        (
            compact_all(&report.ffn_masks(), outcome),
            compact_all(&report.attention_masks(), outcome),
        )
    });
    let inter_sparsity = report.mean_inter_iteration_sparsity();
    let intra_sparsity = report.mean_intra_iteration_sparsity();
    let (q_skip, kv_skip) = report.mean_projection_skips();
    // The measured profile, clamped the way the figure harnesses clamp it.
    let profile = SparsityProfile {
        inter_sparsity,
        ffn_block_frac: ffn.block_frac.clamp(0.01, 1.0),
        ffn_utilization: ffn.utilization.clamp(0.05, 1.0),
        ffn_weight_frac: ffn.weight_frac.clamp(0.01, 1.0),
        intra_sparsity,
        attn_block_frac: attn.block_frac.clamp(0.01, 1.0),
        attn_utilization: attn.utilization.clamp(0.05, 1.0),
        q_skip: q_skip.clamp(0.0, 0.95),
        kv_skip: kv_skip.clamp(0.0, 0.95),
    };
    let config = p.config;
    let mut simulate = |ablation| {
        tracer.span("sim.simulate", |_| {
            outcome.op(name, || {
                simulate_model(hw, &config, &profile, ablation, 1).latency_ms
            })
        })
    };
    let base_ms = simulate(SimAblation::Base)?;
    let all_ms = simulate(SimAblation::All)?;
    Some(ModelResult {
        kind: config.kind,
        cosine: cosine_similarity(reference.as_slice(), out.as_slice()),
        vanilla_ops: vanilla_report.total_ops(),
        reuse_ep_ops: report.total_ops(),
        reuse_ep_ffn_ops: report.ffn_ops(),
        inter_sparsity,
        intra_sparsity,
        q_skip,
        kv_skip,
        ffn_block_frac: ffn.block_frac,
        attn_block_frac: attn.block_frac,
        base_ms,
        all_ms,
        output_hash: fold_outputs([&reference, &out]),
    })
}

/// The output checks of one model's flow; each error names what failed.
pub fn check_model(r: &ModelResult) -> Vec<String> {
    let mut errors = Vec::new();
    if r.cosine.is_nan() || r.cosine < COSINE_FLOOR {
        errors.push(format!(
            "cosine {} against Vanilla is below {COSINE_FLOOR}",
            r.cosine
        ));
    }
    for (what, ops) in [
        ("vanilla", r.vanilla_ops),
        ("ffn_reuse_ep", r.reuse_ep_ops),
        ("ffn_reuse_ep ffn", r.reuse_ep_ffn_ops),
    ] {
        if ops.performed > ops.dense || ops.dense == 0 {
            errors.push(format!(
                "{what}: {} MACs performed against {} dense",
                ops.performed, ops.dense
            ));
        }
    }
    for (what, v) in [
        ("inter_sparsity", r.inter_sparsity),
        ("intra_sparsity", r.intra_sparsity),
        ("q_skip", r.q_skip),
        ("kv_skip", r.kv_skip),
        ("ffn_block_frac", r.ffn_block_frac),
        ("attn_block_frac", r.attn_block_frac),
    ] {
        if !(0.0..=1.0).contains(&v) {
            errors.push(format!("{what} {v} outside [0, 1]"));
        }
    }
    for (what, v) in [("base_ms", r.base_ms), ("all_ms", r.all_ms)] {
        if !(v.is_finite() && v > 0.0) {
            errors.push(format!("simulated {what} {v} is not finite and positive"));
        }
    }
    errors
}

/// One pass of the flow over every model.
#[derive(Debug, Clone, PartialEq)]
pub struct PassResult {
    /// Per-model results, in spec order.
    pub models: Vec<ModelResult>,
}

impl PassResult {
    /// Generations run (two per model).
    pub fn generations(&self) -> usize {
        2 * self.models.len()
    }

    /// Dense-equivalent GMACs of every generation.
    pub fn dense_gmac(&self) -> f64 {
        self.models
            .iter()
            .map(|m| (m.vanilla_ops.dense + m.reuse_ep_ops.dense) as f64 / 1e9)
            .sum()
    }

    /// Lowest FFN-Reuse+EP cosine against Vanilla.
    pub fn cosine_min(&self) -> f64 {
        self.models
            .iter()
            .map(|m| m.cosine)
            .fold(f64::INFINITY, f64::min)
    }

    /// Geomean of simulated Base/All latency.
    pub fn speedup_geomean(&self) -> f64 {
        let ratios: Vec<f64> = self.models.iter().map(|m| m.base_ms / m.all_ms).collect();
        geomean(&ratios)
    }

    /// Nearest-rank 99.9th percentile of the simulated All latency across
    /// the models (with seven models, the slowest).
    pub fn sim_p999_ms(&self) -> f64 {
        let v: Vec<f64> = self.models.iter().map(|m| m.all_ms).collect();
        nearest_rank(&v, 0.999)
    }

    fn passing(&self) -> usize {
        self.models
            .iter()
            .filter(|m| m.cosine >= COSINE_FLOOR)
            .count()
    }

    /// Generations that meet the cosine floor per simulated second, with
    /// the models run back to back under the All ablation.
    pub fn sim_goodput_rps(&self) -> f64 {
        let total_ms: f64 = self.models.iter().map(|m| m.all_ms).sum();
        1000.0 * self.passing() as f64 / total_ms
    }

    /// Share of models whose FFN-Reuse+EP output meets the cosine floor.
    pub fn sim_attainment(&self) -> f64 {
        self.passing() as f64 / self.models.len().max(1) as f64
    }

    /// Mean of `f` over the models.
    pub fn mean(&self, f: impl Fn(&ModelResult) -> f64) -> f64 {
        self.models.iter().map(f).sum::<f64>() / self.models.len().max(1) as f64
    }
}

/// Runs one pass over prebuilt pipelines, checking every model's output,
/// and calls `between` before every model after the first, outside the
/// models' timed spans. Returns the results and each model's host
/// seconds; `None` when an operation panicked.
pub fn run_pass(
    pipelines: &mut [ModelPipelines],
    hw: &HwConfig,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
    mut between: impl FnMut(&mut Outcome),
) -> Option<(PassResult, Vec<f64>)> {
    let mut models = Vec::with_capacity(pipelines.len());
    let mut wall_s = Vec::with_capacity(pipelines.len());
    for (i, p) in pipelines.iter_mut().enumerate() {
        if i > 0 {
            between(outcome);
        }
        let t = Instant::now();
        let r = run_model(p, hw, tracer, outcome)?;
        wall_s.push(t.elapsed().as_secs_f64());
        outcome.verify(r.kind.name(), check_model(&r));
        models.push(r);
    }
    Some((PassResult { models }, wall_s))
}

/// The FFN-Reuse-only and EP-only generations of every model, each in
/// its own span (`model.ffn_reuse`, `model.ep`).
pub fn run_single_technique_generations(
    spec: &PaperSpec,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) {
    for &kind in &spec.kinds {
        let config = spec.config(kind);
        let (seed, noise) = spec.seeds(kind);
        for (span, ablation) in [
            ("model.ffn_reuse", Ablation::FfnReuse),
            ("model.ep", Ablation::Ep),
        ] {
            let mut pipeline = GenerationPipeline::new(&config, ablation.policy(&config), seed);
            tracer.span(span, |_| {
                outcome.op(kind.name(), || pipeline.generate(PROMPT, noise))
            });
        }
    }
}

/// Records the paper-stack per-layer metrics from a traced pass.
pub fn record_layers(pass: &PassResult, tracer: &Tracer, outcome: &mut Outcome) {
    for (metric, span) in [
        ("model.gen_ms.vanilla", "model.vanilla"),
        ("model.gen_ms.ffn_reuse", "model.ffn_reuse"),
        ("model.gen_ms.ep", "model.ep"),
        ("model.gen_ms.ffn_reuse_ep", "model.ffn_reuse_ep"),
        ("sim.simulate_ms", "sim.simulate"),
    ] {
        outcome.set(metric, tracer.mean_ms(span));
    }
    outcome.set("conmerge.compact_ms", tracer.total_ms("conmerge.compact"));
    let performed: u64 = pass
        .models
        .iter()
        .map(|m| m.reuse_ep_ffn_ops.performed)
        .sum();
    let dense: u64 = pass.models.iter().map(|m| m.reuse_ep_ffn_ops.dense).sum();
    outcome.set(
        "ffn_reuse.mac_ratio",
        performed as f64 / dense.max(1) as f64,
    );
    outcome.set("ffn_reuse.inter_sparsity", pass.mean(|m| m.inter_sparsity));
    outcome.set("ep.intra_sparsity", pass.mean(|m| m.intra_sparsity));
    outcome.set("ep.q_skip", pass.mean(|m| m.q_skip));
    outcome.set("ep.kv_skip", pass.mean(|m| m.kv_skip));
    outcome.set("conmerge.ffn_block_frac", pass.mean(|m| m.ffn_block_frac));
    outcome.set("conmerge.attn_block_frac", pass.mean(|m| m.attn_block_frac));
    outcome.set("sim.latency_ms.all", pass.mean(|m| m.all_ms));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_pass() -> PassResult {
        let spec = PaperSpec {
            kinds: vec![ModelKind::Mld, ModelKind::Dit],
            hw: HwConfig::exion4(),
            seed: 3,
            shrink: Some((4, 4)),
        };
        let mut pipelines = build_pipelines(&spec);
        let mut outcome = Outcome::default();
        let (pass, _) = run_pass(
            &mut pipelines,
            &spec.hw,
            &mut Tracer::new(false),
            &mut outcome,
            |_| {},
        )
        .expect("no panic");
        assert!(outcome.correct(), "{:?}", outcome.errors);
        pass
    }

    #[test]
    fn checks_pass_on_a_real_pass_and_trip_on_corruption() {
        let pass = tiny_pass();
        for m in &pass.models {
            assert!(check_model(m).is_empty());
        }
        let good = pass.models[0].clone();

        let mut bad = good.clone();
        bad.cosine = COSINE_FLOOR - 1e-3;
        assert_eq!(check_model(&bad).len(), 1, "cosine below the floor");

        let mut bad = good.clone();
        bad.reuse_ep_ops.performed = bad.reuse_ep_ops.dense + 1;
        assert_eq!(check_model(&bad).len(), 1, "performed above dense");

        let mut bad = good.clone();
        bad.intra_sparsity = 1.0 + 1e-9;
        assert_eq!(check_model(&bad).len(), 1, "sparsity above 1");

        let mut bad = good;
        bad.all_ms = f64::NAN;
        assert_eq!(check_model(&bad).len(), 1, "non-finite latency");
    }

    #[test]
    fn a_pass_is_deterministic_in_its_seed() {
        assert_eq!(tiny_pass(), tiny_pass());
    }
}
