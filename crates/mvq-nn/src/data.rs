//! Procedurally generated datasets standing in for ImageNet / COCO / VOC.
//!
//! The MVQ algorithm's comparative behaviour depends on the statistics of
//! trained weights, not on any particular dataset, so training happens on
//! synthetic tasks that small CNNs can learn to high accuracy — leaving
//! clear headroom for compression-induced degradation, which is what the
//! paper's tables measure.

use mvq_tensor::Tensor;
use rand::Rng;

/// A labelled image-classification dataset split into train and test.
///
/// Images are class prototypes (random low-frequency sinusoid mixtures)
/// with per-sample random shift, amplitude jitter and additive noise: easy
/// enough for a small CNN to learn, hard enough that weight perturbation
/// costs accuracy.
#[derive(Debug, Clone)]
pub struct SyntheticClassification {
    /// Training images `[N_train, 3, S, S]`.
    pub train_images: Tensor,
    /// Training labels.
    pub train_labels: Vec<usize>,
    /// Test images `[N_test, 3, S, S]`.
    pub test_images: Tensor,
    /// Test labels.
    pub test_labels: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
    /// Image side length.
    pub image_size: usize,
}

/// The frequency mixture defining one class's appearance.
#[derive(Debug, Clone)]
struct Prototype {
    // (channel amplitude, fx, fy, phase) per component
    components: Vec<(f32, f32, f32, f32)>,
}

impl Prototype {
    fn sample<R: Rng>(rng: &mut R) -> Prototype {
        let n = rng.gen_range(3..=5);
        let components = (0..n)
            .map(|_| {
                (
                    rng.gen_range(0.5..1.5),
                    rng.gen_range(0.5..3.0),
                    rng.gen_range(0.5..3.0),
                    rng.gen_range(0.0..std::f32::consts::TAU),
                )
            })
            .collect();
        Prototype { components }
    }

    fn render(&self, size: usize, shift: (f32, f32), amp: f32, channel: usize) -> Vec<f32> {
        let mut img = vec![0.0f32; size * size];
        for (i, (a, fx, fy, phase)) in self.components.iter().enumerate() {
            // rotate component emphasis across channels so channels differ
            let ca = a * (1.0 + 0.3 * ((i + channel) % 3) as f32);
            for y in 0..size {
                for x in 0..size {
                    let u = (x as f32 + shift.0) / size as f32;
                    let v = (y as f32 + shift.1) / size as f32;
                    img[y * size + x] +=
                        amp * ca * (std::f32::consts::TAU * (fx * u + fy * v) + phase).sin();
                }
            }
        }
        img
    }
}

impl SyntheticClassification {
    /// Generates a dataset with `num_classes` classes, `n_train`/`n_test`
    /// samples and square images of side `image_size`.
    ///
    /// # Panics
    ///
    /// Panics when any count is zero.
    pub fn generate<R: Rng>(
        num_classes: usize,
        n_train: usize,
        n_test: usize,
        image_size: usize,
        rng: &mut R,
    ) -> SyntheticClassification {
        assert!(num_classes > 0 && n_train > 0 && n_test > 0 && image_size > 0);
        let prototypes: Vec<Prototype> = (0..num_classes).map(|_| Prototype::sample(rng)).collect();
        let (train_images, train_labels) =
            Self::render_split(&prototypes, n_train, image_size, rng);
        let (test_images, test_labels) = Self::render_split(&prototypes, n_test, image_size, rng);
        SyntheticClassification {
            train_images,
            train_labels,
            test_images,
            test_labels,
            num_classes,
            image_size,
        }
    }

    fn render_split<R: Rng>(
        prototypes: &[Prototype],
        n: usize,
        size: usize,
        rng: &mut R,
    ) -> (Tensor, Vec<usize>) {
        let mut images = Tensor::zeros(vec![n, 3, size, size]);
        let mut labels = Vec::with_capacity(n);
        for s in 0..n {
            let class = rng.gen_range(0..prototypes.len());
            labels.push(class);
            let shift = (rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0));
            let amp = rng.gen_range(0.8..1.2);
            for ch in 0..3 {
                let img = prototypes[class].render(size, shift, amp, ch);
                let base = (s * 3 + ch) * size * size;
                let dst = &mut images.data_mut()[base..base + size * size];
                for (d, v) in dst.iter_mut().zip(img) {
                    *d = v + rng.gen_range(-0.15..0.15);
                }
            }
        }
        (images, labels)
    }

    /// Number of training samples.
    pub fn n_train(&self) -> usize {
        self.train_labels.len()
    }

    /// Number of test samples.
    pub fn n_test(&self) -> usize {
        self.test_labels.len()
    }
}

/// A dense-prediction (segmentation) dataset: images containing colored
/// geometric shapes over a textured background; the label of each pixel is
/// the class of the shape covering it (0 = background).
#[derive(Debug, Clone)]
pub struct SyntheticSegmentation {
    /// Training images `[N, 3, S, S]`.
    pub train_images: Tensor,
    /// Per-pixel training labels, `N * S * S` entries row-major.
    pub train_labels: Vec<usize>,
    /// Test images.
    pub test_images: Tensor,
    /// Per-pixel test labels.
    pub test_labels: Vec<usize>,
    /// Number of classes including background.
    pub num_classes: usize,
    /// Image side length.
    pub image_size: usize,
}

impl SyntheticSegmentation {
    /// Generates a segmentation dataset with `num_classes` classes
    /// (including background class 0).
    ///
    /// # Panics
    ///
    /// Panics when `num_classes < 2` or any count is zero.
    pub fn generate<R: Rng>(
        num_classes: usize,
        n_train: usize,
        n_test: usize,
        image_size: usize,
        rng: &mut R,
    ) -> SyntheticSegmentation {
        assert!(num_classes >= 2 && n_train > 0 && n_test > 0 && image_size > 0);
        // fixed per-class colors so the task is learnable
        let colors: Vec<[f32; 3]> = (0..num_classes)
            .map(|_| [rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)])
            .collect();
        let (train_images, train_labels) =
            Self::render_split(&colors, num_classes, n_train, image_size, rng);
        let (test_images, test_labels) =
            Self::render_split(&colors, num_classes, n_test, image_size, rng);
        SyntheticSegmentation {
            train_images,
            train_labels,
            test_images,
            test_labels,
            num_classes,
            image_size,
        }
    }

    fn render_split<R: Rng>(
        colors: &[[f32; 3]],
        num_classes: usize,
        n: usize,
        size: usize,
        rng: &mut R,
    ) -> (Tensor, Vec<usize>) {
        let mut images = Tensor::zeros(vec![n, 3, size, size]);
        let mut labels = vec![0usize; n * size * size];
        for s in 0..n {
            // textured background
            for ch in 0..3 {
                let base = (s * 3 + ch) * size * size;
                for p in 0..size * size {
                    images.data_mut()[base + p] = colors[0][ch] * 0.3 + rng.gen_range(-0.2..0.2);
                }
            }
            // 1-3 shapes of non-background classes
            let n_shapes = rng.gen_range(1..=3);
            for _ in 0..n_shapes {
                let class = rng.gen_range(1..num_classes);
                let cx = rng.gen_range(0..size) as isize;
                let cy = rng.gen_range(0..size) as isize;
                let r = rng.gen_range(size / 6..=size / 3) as isize;
                let circle = rng.gen_bool(0.5);
                for y in 0..size as isize {
                    for x in 0..size as isize {
                        let inside = if circle {
                            (x - cx).pow(2) + (y - cy).pow(2) <= r * r
                        } else {
                            (x - cx).abs() <= r && (y - cy).abs() <= r
                        };
                        if inside {
                            let p = (y as usize) * size + x as usize;
                            labels[s * size * size + p] = class;
                            for ch in 0..3 {
                                let base = (s * 3 + ch) * size * size;
                                images.data_mut()[base + p] =
                                    colors[class][ch] + rng.gen_range(-0.1..0.1);
                            }
                        }
                    }
                }
            }
        }
        (images, labels)
    }
}

/// Copies a batch `[from, to)` of images and labels out of a dataset.
/// Each image has `labels.len() / N` labels: one for classification,
/// `H·W` for segmentation.
///
/// # Panics
///
/// Panics if the range is out of bounds.
pub fn batch_of(images: &Tensor, labels: &[usize], from: usize, to: usize) -> (Tensor, Vec<usize>) {
    let d = images.dims();
    let per = d[1] * d[2] * d[3];
    let lper = labels.len() / d[0].max(1);
    let data = images.data()[from * per..to * per].to_vec();
    let batch =
        Tensor::from_vec(vec![to - from, d[1], d[2], d[3]], data).expect("slice sized to dims");
    (batch, labels[from * lper..to * lper].to_vec())
}

/// Copies the images and labels at `indices` (a shuffled slice of the
/// training order) into one batch, in `indices` order. Labels are per
/// sample or per pixel, as in [`batch_of`].
///
/// # Panics
///
/// Panics if an index is out of bounds.
pub fn gather_batch(images: &Tensor, labels: &[usize], indices: &[usize]) -> (Tensor, Vec<usize>) {
    let d = images.dims();
    let per = d[1] * d[2] * d[3];
    let lper = labels.len() / d[0].max(1);
    let mut data = Vec::with_capacity(indices.len() * per);
    let mut lab = Vec::with_capacity(indices.len() * lper);
    for &i in indices {
        data.extend_from_slice(&images.data()[i * per..(i + 1) * per]);
        lab.extend_from_slice(&labels[i * lper..(i + 1) * lper]);
    }
    let batch =
        Tensor::from_vec(vec![indices.len(), d[1], d[2], d[3]], data).expect("slice sized to dims");
    (batch, lab)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn classification_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = SyntheticClassification::generate(5, 20, 10, 8, &mut rng);
        assert_eq!(d.train_images.dims(), &[20, 3, 8, 8]);
        assert_eq!(d.test_images.dims(), &[10, 3, 8, 8]);
        assert_eq!(d.n_train(), 20);
        assert_eq!(d.n_test(), 10);
        assert!(d.train_labels.iter().all(|&l| l < 5));
    }

    #[test]
    fn classification_classes_differ() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = SyntheticClassification::generate(2, 40, 4, 8, &mut rng);
        // mean images of the two classes should differ measurably
        let per = 3 * 8 * 8;
        let mut means = [vec![0.0f32; per], vec![0.0f32; per]];
        let mut counts = [0usize; 2];
        for (s, &l) in d.train_labels.iter().enumerate() {
            counts[l] += 1;
            for i in 0..per {
                means[l][i] += d.train_images.data()[s * per + i];
            }
        }
        let dist: f32 = means[0]
            .iter()
            .zip(&means[1])
            .map(|(a, b)| (a / counts[0].max(1) as f32 - b / counts[1].max(1) as f32).powi(2))
            .sum();
        assert!(dist > 0.5, "class means too close: {dist}");
    }

    #[test]
    fn segmentation_labels_in_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = SyntheticSegmentation::generate(4, 6, 3, 16, &mut rng);
        assert_eq!(d.train_labels.len(), 6 * 16 * 16);
        assert!(d.train_labels.iter().all(|&l| l < 4));
        // shapes exist: some non-background pixels
        assert!(d.train_labels.iter().any(|&l| l > 0));
        // background exists too
        assert!(d.train_labels.contains(&0));
    }

    #[test]
    fn batch_extraction() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = SyntheticClassification::generate(3, 10, 4, 8, &mut rng);
        let (xb, yb) = batch_of(&d.train_images, &d.train_labels, 2, 5);
        assert_eq!(xb.dims(), &[3, 3, 8, 8]);
        assert_eq!(yb.len(), 3);
        assert_eq!(yb[0], d.train_labels[2]);
        // first image of batch equals third image of dataset
        let per = 3 * 8 * 8;
        assert_eq!(&xb.data()[..per], &d.train_images.data()[2 * per..3 * per]);
    }

    #[test]
    fn gather_copies_in_index_order() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = SyntheticClassification::generate(3, 10, 4, 8, &mut rng);
        let (xb, yb) = gather_batch(&d.train_images, &d.train_labels, &[7, 2]);
        let (x7, y7) = batch_of(&d.train_images, &d.train_labels, 7, 8);
        let (x2, y2) = batch_of(&d.train_images, &d.train_labels, 2, 3);
        assert_eq!(xb.dims(), &[2, 3, 8, 8]);
        assert_eq!(xb.data(), [x7.data(), x2.data()].concat());
        assert_eq!(yb, [y7, y2].concat());
    }

    #[test]
    fn seg_batch_extraction() {
        let mut rng = StdRng::seed_from_u64(4);
        let d = SyntheticSegmentation::generate(3, 5, 2, 8, &mut rng);
        let (xb, yb) = batch_of(&d.train_images, &d.train_labels, 1, 3);
        assert_eq!(xb.dims(), &[2, 3, 8, 8]);
        assert_eq!(yb.len(), 2 * 64);
        assert_eq!(yb[0], d.train_labels[64]);
    }

    #[test]
    fn deterministic_generation() {
        let a = SyntheticClassification::generate(3, 5, 2, 8, &mut StdRng::seed_from_u64(9));
        let b = SyntheticClassification::generate(3, 5, 2, 8, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.train_images.data(), b.train_images.data());
        assert_eq!(a.train_labels, b.train_labels);
    }
}
