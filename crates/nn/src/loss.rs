//! Loss functions and classification metrics.

use treu_math::{vector, Matrix};

/// Softmax cross-entropy over a batch of logits.
///
/// Returns `(mean loss, gradient w.r.t. logits)`. The gradient is already
/// divided by the batch size, so it feeds straight into `backward`.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()` or any label is out of range.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> (f64, Matrix) {
    assert_eq!(labels.len(), logits.rows(), "cross entropy: label count mismatch");
    let n = logits.rows().max(1) as f64;
    let mut grad = Matrix::zeros(logits.rows(), logits.cols());
    let mut loss = 0.0;
    for r in 0..logits.rows() {
        let y = labels[r];
        assert!(y < logits.cols(), "label {y} out of range {}", logits.cols());
        // The row's probabilities, computed in place of its gradient.
        let grow = grad.row_mut(r);
        vector::softmax_into(logits.row(r), grow);
        loss += -(grow[y].max(1e-300)).ln();
        for (c, pc) in grow.iter_mut().enumerate() {
            *pc = (*pc - if c == y { 1.0 } else { 0.0 }) / n;
        }
    }
    (loss / n, grad)
}

/// Mean squared error over a batch.
///
/// Returns `(mean loss, gradient w.r.t. predictions)`; the loss is averaged
/// over every element.
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn mse(pred: &Matrix, target: &Matrix) -> (f64, Matrix) {
    assert_eq!(pred.shape(), target.shape(), "mse: shape mismatch");
    let n = pred.as_slice().len().max(1) as f64;
    let mut grad = Matrix::zeros(pred.rows(), pred.cols());
    let mut loss = 0.0;
    for (i, (p, t)) in pred.as_slice().iter().zip(target.as_slice()).enumerate() {
        let d = p - t;
        loss += d * d;
        grad.as_mut_slice()[i] = 2.0 * d / n;
    }
    (loss / n, grad)
}

/// Fraction of rows whose argmax equals the label.
pub fn accuracy(logits: &Matrix, labels: &[usize]) -> f64 {
    assert_eq!(labels.len(), logits.rows(), "accuracy: label count mismatch");
    if labels.is_empty() {
        return 0.0;
    }
    let correct = labels
        .iter()
        .enumerate()
        .filter(|(r, &y)| vector::argmax(logits.row(*r)) == Some(y))
        .count();
    correct as f64 / labels.len() as f64
}

/// Per-class confusion matrix: `counts[(true, predicted)]`.
pub fn confusion_matrix(logits: &Matrix, labels: &[usize], classes: usize) -> Matrix {
    let mut m = Matrix::zeros(classes, classes);
    for (r, &y) in labels.iter().enumerate() {
        if let Some(p) = vector::argmax(logits.row(r)) {
            m[(y, p)] += 1.0;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let logits = Matrix::from_rows(&[&[20.0, -20.0], &[-20.0, 20.0]]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1]);
        assert!(loss < 1e-10);
    }

    #[test]
    fn cross_entropy_of_uniform_is_log_k() {
        let logits = Matrix::from_rows(&[&[0.0, 0.0, 0.0, 0.0]]);
        let (loss, _) = softmax_cross_entropy(&logits, &[2]);
        assert!((loss - 4.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = Matrix::from_rows(&[&[0.3, -0.7, 1.2], &[0.1, 0.0, -0.4]]);
        let labels = [2, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-6;
        for i in 0..logits.as_slice().len() {
            let mut p = logits.clone();
            p.as_mut_slice()[i] += eps;
            let mut m = logits.clone();
            m.as_mut_slice()[i] -= eps;
            let (lp, _) = softmax_cross_entropy(&p, &labels);
            let (lm, _) = softmax_cross_entropy(&m, &labels);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - grad.as_slice()[i]).abs() < 1e-6, "i={i}");
        }
    }

    #[test]
    fn mse_basics() {
        let p = Matrix::from_rows(&[&[1.0, 2.0]]);
        let t = Matrix::from_rows(&[&[0.0, 2.0]]);
        let (loss, grad) = mse(&p, &t);
        assert!((loss - 0.5).abs() < 1e-12);
        assert_eq!(grad.row(0), &[1.0, 0.0]);
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 0.0]]);
        assert_eq!(accuracy(&logits, &[0, 1, 1]), 2.0 / 3.0);
        assert_eq!(accuracy(&Matrix::zeros(0, 2), &[]), 0.0);
    }

    #[test]
    fn confusion_matrix_diagonal_for_perfect() {
        let logits = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let cm = confusion_matrix(&logits, &[0, 1], 2);
        assert_eq!(cm[(0, 0)], 1.0);
        assert_eq!(cm[(1, 1)], 1.0);
        assert_eq!(cm[(0, 1)], 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_label_panics() {
        softmax_cross_entropy(&Matrix::zeros(1, 2), &[5]);
    }
}
