//! Serial matrix multiplication kernels.
//!
//! These back both the convolution layers (via im2col) and the clustering
//! distance computations, so they are written for cache friendliness:
//! row-major accumulation with the `k` loop innermost-but-one. Callers
//! that want threads (the service and stream workers) fan out above them.

use crate::error::TensorError;
use crate::tensor::Tensor;

/// `C = A (m×k) · B (k×n)`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless both operands are matrices,
/// and [`TensorError::ShapeMismatch`] when the inner dimensions disagree.
///
/// ```
/// use mvq_tensor::{gemm, Tensor};
/// let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// let c = gemm(&a, &Tensor::eye(2))?;
/// assert_eq!(c, a);
/// # Ok::<(), mvq_tensor::TensorError>(())
/// ```
pub fn gemm(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    check_rank2(a, "gemm")?;
    check_rank2(b, "gemm")?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "gemm",
        });
    }
    let mut out = Tensor::zeros(vec![m, n]);
    let a_data = a.data();
    let b_data = b.data();
    for (i, out_row) in out.data_mut().chunks_mut(n).enumerate() {
        let a_row = &a_data[i * k..(i + 1) * k];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b_data[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    Ok(out)
}

/// `C = Aᵀ (k×m)ᵀ · B (k×n)` computed without materializing `Aᵀ`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`] as
/// [`gemm`] does; here the *leading* dimensions of `a` and `b` must agree.
pub fn matmul_transpose_a(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    check_rank2(a, "matmul_transpose_a")?;
    check_rank2(b, "matmul_transpose_a")?;
    let (k, m) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul_transpose_a",
        });
    }
    let mut out = Tensor::zeros(vec![m, n]);
    let a_data = a.data();
    let b_data = b.data();
    // out[i][j] = sum_p a[p][i] * b[p][j]; iterate p outer for contiguity.
    let out_slice = out.data_mut();
    for p in 0..k {
        let a_row = &a_data[p * m..(p + 1) * m];
        let b_row = &b_data[p * n..(p + 1) * n];
        for (i, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let o = &mut out_slice[i * n..(i + 1) * n];
            for (ov, &bv) in o.iter_mut().zip(b_row) {
                *ov += av * bv;
            }
        }
    }
    Ok(out)
}

/// `C = A (m×k) · Bᵀ (n×k)ᵀ` computed without materializing `Bᵀ`.
///
/// This is the kernel behind Euclidean distance matrices: each output cell
/// is a dot product of a row of `a` with a row of `b`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`];
/// here the *trailing* dimensions of `a` and `b` must agree.
pub fn matmul_transpose_b(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    check_rank2(a, "matmul_transpose_b")?;
    check_rank2(b, "matmul_transpose_b")?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, k2) = (b.dims()[0], b.dims()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul_transpose_b",
        });
    }
    let mut out = Tensor::zeros(vec![m, n]);
    let a_data = a.data();
    let b_data = b.data();
    for (i, out_row) in out.data_mut().chunks_mut(n).enumerate() {
        let a_row = &a_data[i * k..(i + 1) * k];
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = &b_data[j * k..(j + 1) * k];
            *o = a_row.iter().zip(b_row).map(|(&x, &y)| x * y).sum();
        }
    }
    Ok(out)
}

fn check_rank2(t: &Tensor, op: &'static str) -> Result<(), TensorError> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch { expected: 2, actual: t.rank(), op });
    }
    Ok(())
}

impl Tensor {
    /// Matrix product `self · other`; convenience method over [`gemm`].
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`gemm`].
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        gemm(self, other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = Tensor::zeros(vec![m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.data()[i * k + p] * b.data()[p * n + j];
                }
                out.data_mut()[i * n + j] = acc;
            }
        }
        out
    }

    fn seq_tensor(dims: Vec<usize>) -> Tensor {
        let n: usize = dims.iter().product();
        Tensor::from_vec(dims, (0..n).map(|x| (x as f32 * 0.37).sin()).collect()).unwrap()
    }

    #[test]
    fn gemm_matches_naive() {
        for (m, k, n, tol) in [(13, 7, 9, 1e-4), (64, 32, 16, 1e-3)] {
            let a = seq_tensor(vec![m, k]);
            let b = seq_tensor(vec![k, n]);
            let fast = gemm(&a, &b).unwrap();
            let slow = naive(&a, &b);
            for (x, y) in fast.data().iter().zip(slow.data()) {
                assert!((x - y).abs() < tol, "{m}x{k}x{n}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn gemm_identity() {
        let a = seq_tensor(vec![5, 5]);
        let c = gemm(&a, &Tensor::eye(5)).unwrap();
        for (x, y) in c.data().iter().zip(a.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn gemm_rejects_bad_shapes() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![4, 2]);
        assert!(gemm(&a, &b).is_err());
        assert!(gemm(&Tensor::zeros(vec![3]), &b).is_err());
    }

    #[test]
    fn transpose_a_matches_explicit() {
        let a = seq_tensor(vec![6, 4]);
        let b = seq_tensor(vec![6, 5]);
        let fast = matmul_transpose_a(&a, &b).unwrap();
        let slow = naive(&a.transpose().unwrap(), &b);
        assert_eq!(fast.dims(), &[4, 5]);
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn transpose_b_matches_explicit() {
        for (m, k, n) in [(6, 4, 9), (20, 12, 7)] {
            let a = seq_tensor(vec![m, k]);
            let b = seq_tensor(vec![n, k]);
            let fast = matmul_transpose_b(&a, &b).unwrap();
            let slow = naive(&a, &b.transpose().unwrap());
            assert_eq!(fast.dims(), &[m, n]);
            for (x, y) in fast.data().iter().zip(slow.data()) {
                assert!((x - y).abs() < 1e-4, "{m}x{k}x{n}: {x} vs {y}");
            }
        }
    }
}
