//! The dense row-major `f32` tensor used throughout the workspace.

use rand::Rng;

/// A dense, row-major, heap-allocated `f32` tensor.
///
/// `Tensor` is deliberately simple: it owns its data, has no strides or
/// views, and every operation either consumes, borrows, or copies. This keeps
/// the hand-written backprop in `bitrobust-nn` easy to audit, which matters
/// more here than zero-copy slicing — the models are small and the inner
/// loops (matmul, im2col) operate on raw slices anyway.
///
/// # Examples
///
/// ```
/// use bitrobust_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.at(&[1, 2]), 6.0);
/// assert_eq!(t.sum(), 21.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{}, {}, ... ({} values)]", self.data[0], self.data[1], self.data.len())
        }
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Self::zeros(&[0])
    }
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let numel = shape.iter().product();
        Self { shape: shape.to_vec(), data: vec![value; numel] }
    }

    /// Creates a tensor from an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `shape`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            numel,
            data.len(),
            "shape {:?} implies {} elements but buffer holds {}",
            shape,
            numel,
            data.len()
        );
        Self { shape, data }
    }

    /// Creates a tensor by evaluating `f` at each flat index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let numel = shape.iter().product();
        Self { shape: shape.to_vec(), data: (0..numel).map(&mut f).collect() }
    }

    /// Samples i.i.d. `N(0, std^2)` entries.
    pub fn randn(shape: &[usize], std: f32, rng: &mut impl Rng) -> Self {
        let numel: usize = shape.iter().product();
        let data = (0..numel).map(|_| std * gaussian(rng)).collect();
        Self { shape: shape.to_vec(), data }
    }

    /// Samples i.i.d. uniform entries in `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut impl Rng) -> Self {
        let numel: usize = shape.iter().product();
        let data = (0..numel).map(|_| rng.gen_range(lo..hi)).collect();
        Self { shape: shape.to_vec(), data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range.
    pub fn dim(&self, dim: usize) -> usize {
        self.shape[dim]
    }

    /// Immutable view of the underlying buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the tensor with a new shape of identical element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            numel,
            self.data.len(),
            "reshape {:?} -> {:?} changes element count",
            self.shape,
            shape
        );
        self.shape = shape.to_vec();
        self
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of range.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.flat_index(index)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of range.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let i = self.flat_index(index);
        self.data[i] = value;
    }

    fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.shape.len(), "index rank mismatch");
        let mut flat = 0;
        for (d, (&i, &s)) in index.iter().zip(&self.shape).enumerate() {
            assert!(i < s, "index {} out of range for dim {} of size {}", i, d, s);
            flat = flat * s + i;
        }
        flat
    }

    /// Borrow of row `r` of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `r` is out of range.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.ndim(), 2, "row() requires a 2-D tensor");
        let cols = self.shape[1];
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a new tensor with `f` applied elementwise.
    pub fn map(&self, mut f: impl FnMut(f32) -> f32) -> Self {
        Self { shape: self.shape.clone(), data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// `self += alpha * other`, elementwise.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Sets every element to zero, preserving the allocation.
    pub fn fill(&mut self, value: f32) {
        for v in &mut self.data {
            *v = value;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Minimum element (`+inf` for empty tensors).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Maximum element (`-inf` for empty tensors).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Maximum absolute element (0 for empty tensors).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Index of the maximum element in each row of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or has zero columns.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.ndim(), 2, "argmax_rows() requires a 2-D tensor");
        let cols = self.shape[1];
        assert!(cols > 0, "argmax_rows() requires at least one column");
        (0..self.shape[0])
            .map(|r| {
                let row = self.row(r);
                let mut best = 0;
                for (j, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }
}

impl std::ops::Add<&Tensor> for &Tensor {
    type Output = Tensor;
    fn add(self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "add shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(&a, &b)| a + b).collect();
        Tensor { shape: self.shape.clone(), data }
    }
}

impl std::ops::Sub<&Tensor> for &Tensor {
    type Output = Tensor;
    fn sub(self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "sub shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(&a, &b)| a - b).collect();
        Tensor { shape: self.shape.clone(), data }
    }
}

impl std::ops::Mul<&Tensor> for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "mul shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(&a, &b)| a * b).collect();
        Tensor { shape: self.shape.clone(), data }
    }
}

/// Standard normal sample via Box-Muller, using only `Rng::gen`.
fn gaussian(rng: &mut impl Rng) -> f32 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            let r = (-2.0 * u1.ln()).sqrt();
            return (r * (2.0 * std::f64::consts::PI * u2).cos()) as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn constructors_and_accessors() {
        let z = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(z.numel(), 24);
        assert_eq!(z.ndim(), 3);
        assert_eq!(z.dim(2), 4);
        assert_eq!(z.sum(), 0.0);

        let f = Tensor::full(&[3], 2.5);
        assert_eq!(f.data(), &[2.5, 2.5, 2.5]);

        let g = Tensor::from_fn(&[2, 2], |i| i as f32);
        assert_eq!(g.at(&[1, 1]), 3.0);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn from_vec_validates_length() {
        let _ = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros(&[3, 4, 5]);
        t.set(&[2, 1, 3], 7.0);
        assert_eq!(t.at(&[2, 1, 3]), 7.0);
        assert_eq!(t.data()[2 * 20 + 5 + 3], 7.0); // strides [20, 5, 1]
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).reshape(&[3, 2]);
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.at(&[2, 1]), 6.0);
    }

    #[test]
    #[should_panic(expected = "element count")]
    fn reshape_rejects_size_change() {
        let _ = Tensor::zeros(&[2, 3]).reshape(&[7]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(vec![3], vec![4.0, 5.0, 6.0]);
        assert_eq!((&a + &b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!((&b - &a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!((&a * &b).data(), &[4.0, 10.0, 18.0]);

        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c.data(), &[9.0, 12.0, 15.0]);
        c.scale(0.5);
        assert_eq!(c.data(), &[4.5, 6.0, 7.5]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![2, 2], vec![-1.0, 3.0, 0.5, -2.0]);
        assert_eq!(t.sum(), 0.5);
        assert_eq!(t.mean(), 0.125);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.abs_max(), 3.0);
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let t = Tensor::from_vec(vec![2, 3], vec![1.0, 5.0, 5.0, -1.0, -3.0, -2.0]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn randn_is_roughly_standard_normal() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let t = Tensor::randn(&[10_000], 1.0, &mut rng);
        assert!(t.mean().abs() < 0.05, "mean {}", t.mean());
        let var = t.data().iter().map(|v| v * v).sum::<f32>() / 10_000.0;
        assert!((var - 1.0).abs() < 0.1, "var {}", var);
    }

    #[test]
    fn rand_uniform_stays_in_range() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let t = Tensor::rand_uniform(&[1000], -0.25, 0.25, &mut rng);
        assert!(t.min() >= -0.25 && t.max() < 0.25);
    }

    #[test]
    fn map_and_fill() {
        let mut t = Tensor::from_vec(vec![3], vec![1.0, -2.0, 3.0]);
        let abs = t.map(f32::abs);
        assert_eq!(abs.data(), &[1.0, 2.0, 3.0]);
        t.map_inplace(|v| v * 2.0);
        assert_eq!(t.data(), &[2.0, -4.0, 6.0]);
        t.fill(0.0);
        assert_eq!(t.sum(), 0.0);
    }
}
