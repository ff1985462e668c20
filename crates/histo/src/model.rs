//! The multi-task model: shared trunk, segmentation head, counting head.

use crate::synth::{mask_iou, PatchDataset, PATCH_PIXELS};
use treu_math::rng::{derive_seed, SplitMix64};
use treu_math::Matrix;
use treu_nn::dense::Dense;
use treu_nn::layer::{Layer, Relu, Sigmoid, Trainable};
use treu_nn::optimizer::{Adam, Optimizer};

/// Relative weights of the two task losses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskWeights {
    /// Segmentation (per-pixel MSE against the mask).
    pub seg: f64,
    /// Counting (MSE against the cell count, scaled).
    pub count: f64,
}

impl Default for TaskWeights {
    fn default() -> Self {
        Self { seg: 1.0, count: 0.05 }
    }
}

/// Model hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// Trunk hidden width.
    pub hidden: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Task weights.
    pub weights: TaskWeights,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self { hidden: 48, lr: 0.005, epochs: 40, batch: 16, weights: TaskWeights::default() }
    }
}

/// Shared-trunk multi-task network.
pub struct MultiTaskModel {
    trunk: Dense,
    trunk_act: Relu,
    seg_head: Dense,
    seg_act: Sigmoid,
    count_head: Dense,
    opt: Adam,
    cfg: ModelConfig,
}

/// Validation metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistoMetrics {
    /// Mean IoU of predicted tissue masks.
    pub seg_iou: f64,
    /// Mean absolute error of cell counts.
    pub count_mae: f64,
}

impl MultiTaskModel {
    /// Builds the model.
    pub fn new(cfg: ModelConfig, seed: u64) -> Self {
        Self {
            trunk: Dense::new(PATCH_PIXELS, cfg.hidden, derive_seed(seed, "trunk")),
            trunk_act: Relu::new(),
            seg_head: Dense::new(cfg.hidden, PATCH_PIXELS, derive_seed(seed, "seg")),
            seg_act: Sigmoid::new(),
            count_head: Dense::new(cfg.hidden, 1, derive_seed(seed, "count")),
            opt: Adam::new(cfg.lr),
            cfg,
        }
    }

    /// Copies another model's trunk weights (the fine-tuning transplant).
    pub fn load_trunk_from(&mut self, other: &MultiTaskModel) {
        *self.trunk.weights_mut() = other.trunk.weights().clone();
    }

    /// Forward pass on a batch: returns `(seg probs, counts)`, each from
    /// its head's own buffer.
    fn forward(&mut self, x: &Matrix, train: bool) -> (&Matrix, &Matrix) {
        let h = self.trunk.forward(x, train);
        let h = self.trunk_act.forward(h, train);
        let seg = self.seg_act.forward(self.seg_head.forward(h, train), train);
        let count = self.count_head.forward(h, train);
        (seg, count)
    }

    /// One combined-loss training step on a batch; returns the loss.
    fn step(
        &mut self,
        x: &Matrix,
        masks: &Matrix,
        counts: &[f64],
        train_seg: bool,
        train_count: bool,
    ) -> f64 {
        let n = x.rows().max(1) as f64;
        let w = self.cfg.weights;
        let (seg, count) = self.forward(x, true);
        // Per-task gradients.
        let mut seg_grad = Matrix::zeros(seg.rows(), seg.cols());
        let mut loss = 0.0;
        if train_seg {
            for i in 0..seg.as_slice().len() {
                let d = seg.as_slice()[i] - masks.as_slice()[i];
                loss += w.seg * d * d / (n * PATCH_PIXELS as f64);
                seg_grad.as_mut_slice()[i] = 2.0 * w.seg * d / (n * PATCH_PIXELS as f64);
            }
        }
        let mut count_grad = Matrix::zeros(count.rows(), 1);
        if train_count {
            for r in 0..count.rows() {
                let d = count[(r, 0)] - counts[r];
                loss += w.count * d * d / n;
                count_grad[(r, 0)] = 2.0 * w.count * d / n;
            }
        }
        // Backward through both heads into the shared trunk.
        let g_seg = self.seg_head.backward(self.seg_act.backward(&seg_grad));
        let g_count = self.count_head.backward(&count_grad);
        let g_h = g_seg.add(g_count);
        let g_h = self.trunk_act.backward(&g_h);
        self.trunk.backward(g_h);
        let mut opt = std::mem::replace(&mut self.opt, Adam::new(0.0));
        opt.step(self);
        self.opt = opt;
        self.zero_grads();
        loss
    }

    /// Trains on a dataset. `train_seg`/`train_count` select the active
    /// tasks (both = multi-task, one = single-task baseline/pretraining).
    pub fn train(&mut self, data: &PatchDataset, train_seg: bool, train_count: bool, seed: u64) {
        assert!(train_seg || train_count, "no task selected");
        let mut rng = SplitMix64::new(derive_seed(seed, "order"));
        for _ in 0..self.cfg.epochs {
            let order = treu_math::rng::permutation(&mut rng, data.len());
            for chunk in order.chunks(self.cfg.batch) {
                let mut bx = Matrix::zeros(chunk.len(), PATCH_PIXELS);
                let mut bm = Matrix::zeros(chunk.len(), PATCH_PIXELS);
                let mut bc = Vec::with_capacity(chunk.len());
                for (i, &idx) in chunk.iter().enumerate() {
                    bx.row_mut(i).copy_from_slice(data.images.row(idx));
                    bm.row_mut(i).copy_from_slice(data.masks.row(idx));
                    bc.push(data.counts[idx]);
                }
                self.step(&bx, &bm, &bc, train_seg, train_count);
            }
        }
    }

    /// Evaluates IoU and count MAE on a dataset.
    pub fn evaluate(&mut self, data: &PatchDataset) -> HistoMetrics {
        let (seg, count) = self.forward(&data.images, false);
        let mut iou = 0.0;
        let mut mae = 0.0;
        for i in 0..data.len() {
            iou += mask_iou(seg.row(i), data.masks.row(i));
            mae += (count[(i, 0)] - data.counts[i]).abs();
        }
        let n = data.len().max(1) as f64;
        HistoMetrics { seg_iou: iou / n, count_mae: mae / n }
    }
}

/// Two heads, so not a [`Layer`]: use `train`/`evaluate`. Its parameters
/// are what the optimizer steps.
impl Trainable for MultiTaskModel {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        self.trunk.for_each_param(f);
        self.seg_head.for_each_param(f);
        self.count_head.for_each_param(f);
    }

    fn zero_grads(&mut self) {
        self.trunk.zero_grads();
        self.seg_head.zero_grads();
        self.count_head.zero_grads();
    }

    fn param_count(&self) -> usize {
        self.trunk.param_count() + self.seg_head.param_count() + self.count_head.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(seed: u64, n: usize) -> PatchDataset {
        let mut rng = SplitMix64::new(seed);
        PatchDataset::generate(n, &mut rng)
    }

    #[test]
    fn multitask_learns_both_tasks() {
        let train = data(1, 120);
        let val = data(2, 40);
        let mut m = MultiTaskModel::new(ModelConfig::default(), 3);
        let before = m.evaluate(&val);
        m.train(&train, true, true, 4);
        let after = m.evaluate(&val);
        assert!(after.seg_iou > before.seg_iou, "iou {} -> {}", before.seg_iou, after.seg_iou);
        assert!(after.seg_iou > 0.5, "final iou {}", after.seg_iou);
        assert!(
            after.count_mae < before.count_mae,
            "mae {} -> {}",
            before.count_mae,
            after.count_mae
        );
        assert!(after.count_mae < 2.0, "final mae {}", after.count_mae);
    }

    #[test]
    fn single_task_training_ignores_other_head() {
        let train = data(5, 60);
        let val = data(6, 30);
        let mut m = MultiTaskModel::new(ModelConfig { epochs: 20, ..ModelConfig::default() }, 7);
        m.train(&train, true, false, 8);
        let q = m.evaluate(&val);
        assert!(q.seg_iou > 0.45, "seg-only iou {}", q.seg_iou);
        // The count head was never trained: MAE stays large.
        assert!(q.count_mae > 1.5, "untrained count mae {}", q.count_mae);
    }

    #[test]
    #[should_panic(expected = "no task selected")]
    fn training_nothing_panics() {
        let train = data(9, 4);
        MultiTaskModel::new(ModelConfig::default(), 0).train(&train, false, false, 1);
    }

    #[test]
    fn trunk_transplant_copies_weights() {
        let a = MultiTaskModel::new(ModelConfig::default(), 11);
        let mut b = MultiTaskModel::new(ModelConfig::default(), 12);
        assert_ne!(a.trunk.weights(), b.trunk.weights());
        b.load_trunk_from(&a);
        assert_eq!(a.trunk.weights(), b.trunk.weights());
    }

    #[test]
    fn training_is_deterministic() {
        let train = data(13, 30);
        let val = data(14, 10);
        let run = || {
            let mut m =
                MultiTaskModel::new(ModelConfig { epochs: 5, ..ModelConfig::default() }, 15);
            m.train(&train, true, true, 16);
            let q = m.evaluate(&val);
            (q.seg_iou.to_bits(), q.count_mae.to_bits())
        };
        assert_eq!(run(), run());
    }
}
