//! Bench E2.7 — multi-task histopathology: prints the four §2.7 studies'
//! headline numbers, then times multi-task training epochs and the device
//! throughput model.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use treu_core::experiment::{run_once, Params};
use treu_histo::device::{flops_per_sample, Device};
use treu_histo::experiment::HistoExperiment;
use treu_histo::model::{ModelConfig, MultiTaskModel};
use treu_histo::PatchDataset;
use treu_math::rng::SplitMix64;
use treu_nn::layer::Trainable;

fn print_reproduction() {
    let rec = run_once(&HistoExperiment, 2023, Params::new());
    println!("E2.7:");
    println!(
        "  multi-task: seg IoU {:.3}, count MAE {:.3} (single-task MAE {:.3})",
        rec.metric("multitask_seg_iou").unwrap(),
        rec.metric("multitask_count_mae").unwrap(),
        rec.metric("singletask_count_mae").unwrap()
    );
    println!(
        "  (a) device: CPU epoch {:.2}ms vs GPU {:.2}ms (x{:.0})",
        rec.metric("cpu_epoch_seconds").unwrap() * 1e3,
        rec.metric("gpu_epoch_seconds").unwrap() * 1e3,
        rec.metric("gpu_speedup").unwrap()
    );
    println!(
        "  (b) HP search best: hidden {} lr {}",
        rec.metric("hp_best_hidden").unwrap(),
        rec.metric("hp_best_lr").unwrap()
    );
    println!(
        "  (c) augmentation: small-set IoU {:.3} -> {:.3}",
        rec.metric("small_plain_seg_iou").unwrap(),
        rec.metric("small_augmented_seg_iou").unwrap()
    );
    println!(
        "  (d) fine-tune vs scratch (quarter budget): {:.3} vs {:.3}\n",
        rec.metric("finetune_seg_iou").unwrap(),
        rec.metric("scratch_seg_iou").unwrap()
    );
}

fn bench(c: &mut Criterion) {
    print_reproduction();
    let mut rng = SplitMix64::new(1);
    let data = PatchDataset::generate(120, &mut rng);
    c.bench_function("histopathology/train_10_epochs", |b| {
        b.iter(|| {
            let cfg = ModelConfig { epochs: 10, ..ModelConfig::default() };
            let mut m = MultiTaskModel::new(cfg, 3);
            m.train(&data, true, true, 4);
            black_box(m.evaluate(&data))
        })
    });
    c.bench_function("histopathology/device_model", |b| {
        let m = MultiTaskModel::new(ModelConfig::default(), 0);
        let fps = flops_per_sample(Trainable::param_count(&m));
        b.iter(|| {
            black_box(Device::gpu().speedup_over(&Device::cpu(), black_box(fps), 10_000, 128))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_secs(2))
        .without_plots();
    targets = bench
}
criterion_main!(benches);
