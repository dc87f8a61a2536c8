//! The compression baselines the paper compares against.
//!
//! * [`vq_plain`] — conventional vector quantization: the ablation's cases
//!   A (dense weights, common k-means, dense reconstruction), B (sparse
//!   weights, common k-means, dense reconstruction) and C (sparse weights,
//!   common k-means, sparse reconstruction) from Fig. 12;
//! * [`pqf`] — "Permute, Quantize, Fine-tune" (Martinez et al., CVPR '21):
//!   a permutation search that regroups weights into easier-to-quantize
//!   subvectors before ordinary k-means;
//! * [`bgd`] — "Bit Goes Down" (Stock et al., ICLR '20): k-means weighted
//!   by per-subvector importance derived from activation statistics;
//! * [`pvq`] — uniform scalar quantization at a given bit width, the
//!   "pruning vs quantization" comparison point (Kuzmin et al., 2023);
//! * [`dkm`] — differentiable (attention) k-means (Cho et al., ICLR '22),
//!   the soft-assignment clustering the paper cites as related work.

pub mod bgd;
pub mod dkm;
pub mod pqf;
pub mod pvq;
pub mod vq_plain;

pub use bgd::bgd_compress;
pub use dkm::{dkm_cluster, dkm_compress, DkmConfig};
pub use pqf::{pqf_compress, PqfCompressed};
pub use pvq::{pvq_quantize, PvqResult};
pub use vq_plain::{vq_case_a, vq_case_b, vq_case_c, DenseVq};
