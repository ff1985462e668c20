//! Harnessed experiment E2.7: the four §2.7 studies.
//!
//! (a) device timing model, (b) hyper-parameter search over trunk width
//! and learning rate, (c) augmentation impact on a small training set,
//! (d) fine-tuning a pretrained trunk vs training from scratch — plus the
//! headline multi-task vs single-task comparison the section motivates.

use crate::augment::augment_dataset;
use crate::device::{flops_per_sample, Device};
use crate::model::{ModelConfig, MultiTaskModel};
use crate::synth::PatchDataset;
use treu_core::experiment::{Experiment, Params, RunContext};
use treu_core::ExperimentRegistry;
use treu_math::rng::{derive_seed, SplitMix64};
use treu_nn::layer::Trainable;

/// E2.7: all four studies in one harnessed run.
pub struct HistoExperiment;

impl Experiment for HistoExperiment {
    fn name(&self) -> &str {
        "histo/multitask"
    }

    fn run(&self, ctx: &mut RunContext) {
        let n_train = ctx.int("n_train", 120) as usize;
        let n_val = ctx.int("n_val", 40) as usize;
        let epochs = ctx.int("epochs", 40) as usize;
        let mut rng = SplitMix64::new(derive_seed(ctx.seed(), "data"));
        let train = PatchDataset::generate(n_train, &mut rng);
        let val = PatchDataset::generate(n_val, &mut rng);
        let base = ModelConfig { epochs, ..ModelConfig::default() };

        // Each study's models are dropped as soon as they are evaluated: a
        // model keeps its layers' buffers for as long as it lives.
        // Headline: multi-task vs single-task counting.
        let (mq, multi_params) = {
            let mut multi = MultiTaskModel::new(base, derive_seed(ctx.seed(), "multi"));
            multi.train(&train, true, true, derive_seed(ctx.seed(), "multi.t"));
            (multi.evaluate(&val), multi.param_count())
        };
        ctx.record("multitask_seg_iou", mq.seg_iou);
        ctx.record("multitask_count_mae", mq.count_mae);

        let single_q = {
            let mut single = MultiTaskModel::new(base, derive_seed(ctx.seed(), "single"));
            single.train(&train, false, true, derive_seed(ctx.seed(), "single.t"));
            single.evaluate(&val)
        };
        ctx.record("singletask_count_mae", single_q.count_mae);

        // (a) Device model: epoch time CPU vs GPU for this model.
        let fps = flops_per_sample(multi_params);
        let cpu = Device::cpu().epoch_seconds(fps, n_train, base.batch);
        let gpu = Device::gpu().epoch_seconds(fps, n_train, base.batch);
        ctx.record("cpu_epoch_seconds", cpu);
        ctx.record("gpu_epoch_seconds", gpu);
        ctx.record("gpu_speedup", cpu / gpu);

        // (b) Hyper-parameter search: small grid over width and lr.
        let mut best = (f64::INFINITY, 0usize, 0.0f64);
        for &hidden in &[16usize, 48, 96] {
            for &lr in &[0.001, 0.005, 0.02] {
                let cfg = ModelConfig { hidden, lr, epochs: epochs / 2, ..ModelConfig::default() };
                let mut m =
                    MultiTaskModel::new(cfg, derive_seed(ctx.seed(), &format!("hp{hidden}x{lr}")));
                m.train(&train, true, true, derive_seed(ctx.seed(), &format!("hp{hidden}x{lr}.t")));
                let q = m.evaluate(&val);
                let score = (1.0 - q.seg_iou) + 0.2 * q.count_mae;
                ctx.record(&format!("hp_h{hidden:03}_lr{}", (lr * 1000.0) as i64), score);
                if score < best.0 {
                    best = (score, hidden, lr);
                }
            }
        }
        ctx.record("hp_best_hidden", best.1 as f64);
        ctx.record("hp_best_lr", best.2);

        // (c) Augmentation on a small training subset.
        let small = train.take(n_train / 6);
        let pq = {
            let mut plain = MultiTaskModel::new(base, derive_seed(ctx.seed(), "aug.plain"));
            plain.train(&small, true, true, derive_seed(ctx.seed(), "aug.plain.t"));
            plain.evaluate(&val)
        };
        let aq = {
            let mut arng = SplitMix64::new(derive_seed(ctx.seed(), "aug.rng"));
            let augmented = augment_dataset(&small, 5, &mut arng);
            let mut aug = MultiTaskModel::new(base, derive_seed(ctx.seed(), "aug.aug"));
            aug.train(&augmented, true, true, derive_seed(ctx.seed(), "aug.aug.t"));
            aug.evaluate(&val)
        };
        ctx.record("small_plain_seg_iou", pq.seg_iou);
        ctx.record("small_augmented_seg_iou", aq.seg_iou);

        // (d) Fine-tuning: pretrain a trunk on plentiful seg-only data,
        // transplant, fine-tune briefly on the small set; compare to
        // scratch at the same (short) budget.
        let short = ModelConfig { epochs: epochs / 4, ..base };
        let fq = {
            let mut pre_rng = SplitMix64::new(derive_seed(ctx.seed(), "pretrain.data"));
            let pretrain_data = PatchDataset::generate(2 * n_train, &mut pre_rng);
            let mut pretrained = MultiTaskModel::new(base, derive_seed(ctx.seed(), "pre"));
            pretrained.train(&pretrain_data, true, false, derive_seed(ctx.seed(), "pre.t"));
            let mut finetuned = MultiTaskModel::new(short, derive_seed(ctx.seed(), "ft"));
            finetuned.load_trunk_from(&pretrained);
            finetuned.train(&small, true, true, derive_seed(ctx.seed(), "ft.t"));
            finetuned.evaluate(&val)
        };
        let sq = {
            let mut scratch = MultiTaskModel::new(short, derive_seed(ctx.seed(), "scratch"));
            scratch.train(&small, true, true, derive_seed(ctx.seed(), "scratch.t"));
            scratch.evaluate(&val)
        };
        ctx.record("finetune_seg_iou", fq.seg_iou);
        ctx.record("scratch_seg_iou", sq.seg_iou);
    }
}

/// Registers E2.7.
pub fn register(reg: &mut ExperimentRegistry) {
    reg.register(
        "E2.7",
        "Section 2.7",
        "multi-task histopathology: device model, HP search, augmentation, fine-tuning",
        Params::new().with_int("n_train", 120).with_int("epochs", 40),
        Box::new(HistoExperiment),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use treu_core::experiment::{assert_deterministic, run_once};

    fn record() -> &'static treu_core::RunRecord {
        // The full experiment is expensive; run it once and share across
        // the assertions below.
        static REC: std::sync::OnceLock<treu_core::RunRecord> = std::sync::OnceLock::new();
        REC.get_or_init(|| run_once(&HistoExperiment, 2023, Params::new()))
    }

    #[test]
    fn multitask_counting_beats_or_matches_single_task() {
        let rec = record();
        let multi = rec.metric("multitask_count_mae").unwrap();
        let single = rec.metric("singletask_count_mae").unwrap();
        assert!(
            multi <= single * 1.15,
            "multi-task MAE {multi} should be competitive with single-task {single}"
        );
        assert!(rec.metric("multitask_seg_iou").unwrap() > 0.5);
    }

    #[test]
    fn gpu_model_shows_speedup_at_this_batch() {
        let rec = record();
        assert!(rec.metric("gpu_speedup").unwrap() > 1.0);
        assert!(
            rec.metric("cpu_epoch_seconds").unwrap() > rec.metric("gpu_epoch_seconds").unwrap()
        );
    }

    #[test]
    fn augmentation_helps_small_data() {
        let rec = record();
        let plain = rec.metric("small_plain_seg_iou").unwrap();
        let aug = rec.metric("small_augmented_seg_iou").unwrap();
        assert!(aug > plain - 0.02, "augmented {aug} vs plain {plain}");
    }

    #[test]
    fn finetuning_beats_scratch_at_short_budget() {
        let rec = record();
        let ft = rec.metric("finetune_seg_iou").unwrap();
        let sc = rec.metric("scratch_seg_iou").unwrap();
        assert!(ft > sc, "fine-tuned {ft} must beat scratch {sc} at a quarter budget");
    }

    #[test]
    fn hp_search_records_grid_and_best() {
        let rec = record();
        assert!(rec.metric("hp_h048_lr5").is_some());
        assert!(rec.metric("hp_best_hidden").is_some());
        let lr = rec.metric("hp_best_lr").unwrap();
        assert!([0.001, 0.005, 0.02].contains(&lr));
    }

    #[test]
    fn experiment_is_deterministic() {
        let p = Params::new().with_int("n_train", 24).with_int("n_val", 8).with_int("epochs", 4);
        assert_deterministic(&HistoExperiment, 5, &p);
    }

    #[test]
    fn registry_id() {
        let mut reg = ExperimentRegistry::new();
        register(&mut reg);
        assert!(reg.get("E2.7").is_some());
    }
}
