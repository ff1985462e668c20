//! Gradient-ascent unlearning with repair fine-tuning — the §2.3
//! "technique that avoids complete retraining".
//!
//! Phase 1 (*forget*): take a few gradient **ascent** steps on the forget
//! set — maximize the cross-entropy of the forgotten class so the model's
//! decision surface abandons it. Phase 2 (*repair*): briefly fine-tune on
//! the retain set to undo collateral damage to the remaining classes.
//! Total cost is a handful of epochs versus a full training run.

use treu_math::rng::{derive_seed, SplitMix64};
use treu_math::Matrix;
use treu_nn::layer::{Layer, Trainable};
use treu_nn::loss::softmax_cross_entropy;
use treu_nn::model::Sequential;
use treu_nn::optimizer::{Optimizer, Sgd};

/// Hyperparameters of the ascent technique.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AscentConfig {
    /// Cap on ascent passes over the forget set (the phase stops early
    /// once the model's forget-set accuracy collapses).
    pub max_forget_epochs: usize,
    /// Stop ascending once forget-set accuracy falls to this level.
    pub forget_stop_accuracy: f64,
    /// Ascent learning rate (applied with inverted gradients).
    pub forget_lr: f64,
    /// Repair fine-tuning epochs on the retain set.
    pub repair_epochs: usize,
    /// Repair learning rate.
    pub repair_lr: f64,
    /// Minibatch size for both phases.
    pub batch: usize,
}

impl Default for AscentConfig {
    fn default() -> Self {
        Self {
            max_forget_epochs: 20,
            forget_stop_accuracy: 0.05,
            forget_lr: 0.1,
            repair_epochs: 4,
            repair_lr: 0.02,
            batch: 16,
        }
    }
}

/// Applies ascent unlearning in place. Returns optimizer steps taken
/// (forget + repair), the cost to compare against a full retrain.
pub fn unlearn(
    model: &mut Sequential,
    forget: (&Matrix, &[usize]),
    retain: (&Matrix, &[usize]),
    cfg: AscentConfig,
    seed: u64,
) -> u64 {
    let (fx, fy) = forget;
    let (rx, ry) = retain;
    let mut steps = 0u64;

    // Phase 1: maximize the loss on the forget set's true labels. Raw
    // gradient ascent stalls on a confident model (the cross-entropy
    // gradient vanishes when p ≈ one-hot), so the ascent direction is
    // realized stably as *descent toward randomly drawn retained labels* —
    // the relabeling trick from the unlearning literature, which has
    // non-vanishing gradients from step one. Adaptive: the phase stops as
    // soon as forget-set accuracy collapses, so cost tracks difficulty.
    let classes = {
        // Infer the class count from the model's output width.
        let probe = model.forward(&Matrix::zeros(1, fx.cols()), false);
        probe.cols()
    };
    let forget_label = fy.first().copied().unwrap_or(0);
    let mut opt = Sgd::new(cfg.forget_lr, 0.0);
    let mut rng = SplitMix64::new(derive_seed(seed, "forget"));
    for _ in 0..cfg.max_forget_epochs {
        let logits = model.forward(fx, false);
        if treu_nn::loss::accuracy(logits, fy) <= cfg.forget_stop_accuracy {
            break;
        }
        let order = treu_math::rng::permutation(&mut rng, fy.len());
        for chunk in order.chunks(cfg.batch) {
            let mut bx = Matrix::zeros(chunk.len(), fx.cols());
            let mut by = Vec::with_capacity(chunk.len());
            for (i, &idx) in chunk.iter().enumerate() {
                bx.row_mut(i).copy_from_slice(fx.row(idx));
                // Random retained label (anything but the forget class).
                let mut alt = rng.next_bounded(classes.max(2) as u64 - 1) as usize;
                if alt >= forget_label {
                    alt += 1;
                }
                by.push(alt.min(classes - 1));
            }
            let logits = model.forward(&bx, true);
            let (_, grad) = softmax_cross_entropy(logits, &by);
            model.backward(&grad);
            treu_nn::optimizer::clip_grad_norm(model, 10.0);
            opt.step(model);
            model.zero_grads();
            steps += 1;
        }
    }

    // Phase 2: repair fine-tuning on retained data.
    let mut ropt = Sgd::new(cfg.repair_lr, 0.9);
    let mut rrng = SplitMix64::new(derive_seed(seed, "repair"));
    for _ in 0..cfg.repair_epochs {
        treu_nn::model::train_epoch(model, &mut ropt, rx, ry, cfg.batch, &mut rrng);
        steps += ry.len().div_ceil(cfg.batch) as u64;
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::BlobDataset;
    use crate::retrain::{train, TrainConfig};

    fn setup() -> (BlobDataset, Sequential) {
        let mut rng = SplitMix64::new(55);
        let d = BlobDataset::generate(4, 40, 8, 6.0, &mut rng);
        let (model, _) = train(&d.train_x, &d.train_y, 4, TrainConfig::default(), 1);
        (d, model)
    }

    #[test]
    fn ascent_forgets_the_class_and_keeps_the_rest() {
        let (d, mut model) = setup();
        let forget_class = 2;
        let ((fx, fy), (rx, ry)) = d.split_forget(forget_class);
        unlearn(&mut model, (&fx, &fy), (&rx, &ry), AscentConfig::default(), 7);

        let preds = treu_nn::model::predict(&mut model, &d.test_x);
        let accs = d.per_class_test_accuracy(&preds);
        assert!(accs[forget_class] < 0.3, "forget acc {}", accs[forget_class]);
        for (c, &a) in accs.iter().enumerate() {
            if c != forget_class {
                assert!(a > 0.7, "retain class {c} dropped to {a}");
            }
        }
    }

    #[test]
    fn ascent_is_much_cheaper_than_retraining() {
        let (d, mut model) = setup();
        let ((fx, fy), (rx, ry)) = d.split_forget(0);
        let ascent_steps = unlearn(&mut model, (&fx, &fy), (&rx, &ry), AscentConfig::default(), 3);
        let (_, retrain_steps) = crate::retrain::retrain_without(&d, 0, TrainConfig::default(), 3);
        assert!(
            (ascent_steps as f64) < 0.4 * retrain_steps as f64,
            "ascent {ascent_steps} vs retrain {retrain_steps}"
        );
    }

    #[test]
    fn unlearning_is_deterministic() {
        let run = || {
            let (d, mut model) = setup();
            let ((fx, fy), (rx, ry)) = d.split_forget(1);
            unlearn(&mut model, (&fx, &fy), (&rx, &ry), AscentConfig::default(), 11);
            treu_nn::model::predict(&mut model, &d.test_x)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn model_without_unlearning_still_knows_the_class() {
        // Sanity check that forgetting is attributable to `unlearn`.
        let (d, mut model) = setup();
        let preds = treu_nn::model::predict(&mut model, &d.test_x);
        let accs = d.per_class_test_accuracy(&preds);
        assert!(accs[2] > 0.8, "original model should know class 2: {}", accs[2]);
    }
}
