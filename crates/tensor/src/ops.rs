//! Forward-pass kernels.
//!
//! One NN layer computes `Y = act(W · X + b)` where `X` is the
//! **feature-major** activation matrix (`in_features × batch`: one row per
//! neuron, one column per testbench), `W` the `out × in` sparse weight
//! matrix, `b` the bias, and `act` either the threshold `Θ` (hidden layers)
//! or identity (the final exact-linear layer).
//!
//! Feature-major layout is the key to stimulus parallelism on CPUs: a row
//! of `X` is one input neuron's batch vector, contiguous. The sparse kernel
//! runs one of two regimes, chosen once per layer call from the batch width
//! `B`:
//!
//! * **wide** (`B` > 16): every nonzero weight performs one contiguous
//!   `y[0..B] += w · x[0..B]` AXPY over the batch, which the compiler
//!   auto-vectorizes. This mirrors what cuSPARSE's SpMM does for the paper
//!   on GPUs;
//! * **narrow** (`B` ≤ 16, down to the paper's single-stimulus CPU curve of
//!   Fig. 6): an output row's `B` lanes accumulate in a `[T; B]` array held
//!   in registers while the row's nonzeros stream by, and are activated and
//!   stored once. A runtime-length AXPY that short is mostly per-nonzero
//!   loop overhead; a compile-time-length one unrolls.
//!
//! Both add the bias first and then the nonzeros in CSR order, so they
//! produce bit-identical results at every width.
//!
//! Two devices are provided:
//! * [`Device::Serial`] — one thread, models the paper's *CPU* curves
//!   (time ∝ number of connections, Figure 6 bottom);
//! * [`Device::Parallel`] — scoped worker threads standing in for the
//!   paper's *GPU* (per-layer work spread over cores; with enough cores the
//!   time per layer flattens, Figure 6 top). See [`crate::par`].

use crate::csr::Csr;
use crate::dense::Dense;
use crate::par::par_chunks_mut;
use crate::scalar::Scalar;

/// Execution target for the kernels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Device {
    /// Single-threaded execution (the paper's CPU reference point).
    Serial,
    /// Multi-threaded execution (the paper's GPU analogue).
    Parallel,
}

/// Elementwise activation applied after the affine transform.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Activation {
    /// Identity — used by the final exact-linear layer.
    Linear,
    /// `Θ(x) = 1 if x > 0 else 0` — the paper's threshold neurons (Eq. 2).
    Threshold,
}

/// Widest batch that runs the narrow (register) kernel, one instance per
/// width. Measured on five suite circuits at every `B` in 1..=16, serial:
/// the register form takes 0.22–0.44× the AXPY form's time per nonzero at
/// each width (still ahead at 24 and 32, level or behind from 48); it
/// stops at 16 because every width is one more copy of the kernel in the
/// binary. Correctness never depends on it: both kernels compute the same
/// bits at every width.
const NARROW_MAX: usize = 16;

/// Compute one output-neuron row (all batch lanes) into `out` — the wide
/// regime: one AXPY over the batch per nonzero.
#[inline]
fn forward_neuron<T: Scalar>(
    w: &Csr<T>,
    bias: T,
    j: usize,
    x: &Dense<T>,
    act: Activation,
    out: &mut [T],
) {
    for o in out.iter_mut() {
        *o = bias;
    }
    for (c, wv) in w.row(j) {
        let xr = x.row(c as usize);
        // contiguous AXPY over the batch — auto-vectorized
        for (o, &xv) in out.iter_mut().zip(xr) {
            *o += wv * xv;
        }
    }
    activate(act, out);
}

/// Compute one output-neuron row of a `B`-lane batch — the narrow regime:
/// the lanes accumulate in `acc` over the row's `(cols, vals)` in CSR
/// order, then are activated and stored once. `x` holds one `[T; B]` per
/// input neuron.
#[inline]
fn forward_neuron_narrow<T: Scalar, const B: usize>(
    cols: &[u32],
    vals: &[T],
    bias: T,
    x: &[[T; B]],
    act: Activation,
    out: &mut [T],
) {
    let mut acc = [bias; B];
    for (&c, &wv) in cols.iter().zip(vals) {
        for (a, &xv) in acc.iter_mut().zip(&x[c as usize]) {
            *a += wv * xv;
        }
    }
    activate(act, &mut acc);
    out.copy_from_slice(&acc);
}

#[inline]
fn activate<T: Scalar>(act: Activation, out: &mut [T]) {
    if act == Activation::Threshold {
        for o in out.iter_mut() {
            *o = if o.is_positive() { T::ONE } else { T::ZERO };
        }
    }
}

/// Sparse forward pass: `Y = act(W · X + b)`.
///
/// `w` is `out × in` CSR; `x` is `in × batch` feature-major; the result is
/// `out × batch`.
pub fn forward_sparse<T: Scalar>(
    w: &Csr<T>,
    bias: &[T],
    x: &Dense<T>,
    act: Activation,
    device: Device,
) -> Dense<T> {
    let mut y = Dense::zeros(0, 0);
    forward_sparse_into(w, bias, x, act, device, &mut y);
    y
}

/// [`forward_sparse`] writing into a caller-provided buffer (reused across
/// cycles by the batched simulator — per-layer allocation would otherwise
/// dominate the forward pass).
pub fn forward_sparse_into<T: Scalar>(
    w: &Csr<T>,
    bias: &[T],
    x: &Dense<T>,
    act: Activation,
    device: Device,
    y: &mut Dense<T>,
) {
    assert_eq!(w.cols(), x.rows(), "weight/input width mismatch");
    assert_eq!(bias.len(), w.rows(), "bias/output width mismatch");
    let batch = x.cols();
    let out_h = w.rows();
    y.resize_to(out_h, batch);
    if batch == 0 || out_h == 0 {
        return;
    }
    // one arm per narrow width, 1..=NARROW_MAX
    macro_rules! by_width {
        ($($b:tt)*) => {
            match batch {
                $($b => forward_narrow::<T, $b>(w, bias, x, act, device, y),)*
                _ => for_each_row(device, y.data_mut(), batch, |j, row| {
                    forward_neuron(w, bias[j], j, x, act, row)
                }),
            }
        };
    }
    by_width!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 NARROW_MAX)
}

/// The narrow regime of [`forward_sparse_into`] at batch width `B`.
fn forward_narrow<T: Scalar, const B: usize>(
    w: &Csr<T>,
    bias: &[T],
    x: &Dense<T>,
    act: Activation,
    device: Device,
    y: &mut Dense<T>,
) {
    let (row_ptr, cols, vals) = w.raw();
    let (x, _) = x.data().as_chunks::<B>();
    for_each_row(device, y.data_mut(), B, |j, row| {
        let (lo, hi) = (row_ptr[j] as usize, row_ptr[j + 1] as usize);
        forward_neuron_narrow(&cols[lo..hi], &vals[lo..hi], bias[j], x, act, row)
    });
}

/// Apply `f(j, row)` to every `batch`-wide row `j` of `y` on `device`.
fn for_each_row<T: Scalar>(
    device: Device,
    y: &mut [T],
    batch: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    match device {
        Device::Serial => {
            for (j, row) in y.chunks_exact_mut(batch).enumerate() {
                f(j, row);
            }
        }
        Device::Parallel => {
            // aim for a few thousand scalar ops per task to amortize work-stealing
            let min_rows = (4096 / batch).clamp(1, 64);
            par_chunks_mut(y, batch, min_rows, f);
        }
    }
}

/// Dense forward pass over a row-major `out × in` weight matrix — the
/// baseline for the sparse-vs-dense ablation (DESIGN.md A2). Same
/// feature-major activation convention as [`forward_sparse`].
pub fn forward_dense<T: Scalar>(
    w: &Dense<T>,
    bias: &[T],
    x: &Dense<T>,
    act: Activation,
    device: Device,
) -> Dense<T> {
    assert_eq!(w.cols(), x.rows());
    assert_eq!(bias.len(), w.rows());
    let batch = x.cols();
    let out_h = w.rows();
    let mut y = Dense::zeros(out_h, batch);
    if batch == 0 || out_h == 0 {
        return y;
    }
    let body = |j: usize, row: &mut [T]| {
        for o in row.iter_mut() {
            *o = bias[j];
        }
        let wj = w.row(j);
        for (c, &wv) in wj.iter().enumerate() {
            if wv == T::ZERO {
                continue;
            }
            let xr = x.row(c);
            for (o, &xv) in row.iter_mut().zip(xr) {
                *o += wv * xv;
            }
        }
        if act == Activation::Threshold {
            for o in row.iter_mut() {
                *o = if o.is_positive() { T::ONE } else { T::ZERO };
            }
        }
    };
    match device {
        Device::Serial => {
            for (j, row) in y.data_mut().chunks_mut(batch).enumerate() {
                body(j, row);
            }
        }
        Device::Parallel => {
            par_chunks_mut(y.data_mut(), batch, 1, |j, row| body(j, row));
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w() -> Csr<f32> {
        // 2 outputs, 3 inputs:
        // y0 = x0 + 2*x2, y1 = -x1
        Csr::from_triplets(2, 3, vec![(0, 0, 1.0), (0, 2, 2.0), (1, 1, -1.0)])
    }

    #[test]
    fn sparse_linear_forward() {
        // batch of 2: lane0 = (1,1,1), lane1 = (0,1,0.5)
        let x = Dense::from_vec(3, 2, vec![1.0, 0.0, 1.0, 1.0, 1.0, 0.5]);
        let y = forward_sparse(&w(), &[0.0, 0.0], &x, Activation::Linear, Device::Serial);
        // y0 lanes: 1+2*1=3 ; 0+2*0.5=1 — y1 lanes: -1 ; -1
        assert_eq!(y.data(), &[3.0, 1.0, -1.0, -1.0]);
    }

    #[test]
    fn threshold_binarizes() {
        let x = Dense::from_vec(3, 1, vec![1.0, 1.0, 0.0]);
        let y = forward_sparse(&w(), &[0.0, 0.0], &x, Activation::Threshold, Device::Serial);
        assert_eq!(y.data(), &[1.0, 0.0]);
    }

    #[test]
    fn bias_shifts_preactivation() {
        // AND neuron per the paper: weights 1,1; bias 1-|S| = -1; Θ
        let and: Csr<f32> = Csr::from_triplets(1, 2, vec![(0, 0, 1.0), (0, 1, 1.0)]);
        // 4 lanes: (0,0),(1,0),(0,1),(1,1)
        let x = Dense::from_vec(2, 4, vec![0., 1., 0., 1., 0., 0., 1., 1.]);
        let y = forward_sparse(&and, &[-1.0], &x, Activation::Threshold, Device::Serial);
        assert_eq!(y.data(), &[0., 0., 0., 1.]);
    }

    #[test]
    fn parallel_matches_serial() {
        let mut seed = 0x12345678u64;
        let mut rng = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut trips = Vec::new();
        for r in 0..37u32 {
            for c in 0..53u32 {
                if rng() % 5 == 0 {
                    trips.push((r, c, (rng() % 7) as f32 - 3.0));
                }
            }
        }
        let w: Csr<f32> = Csr::from_triplets(37, 53, trips);
        let bias: Vec<f32> = (0..37).map(|_| (rng() % 3) as f32 - 1.0).collect();
        let xdata: Vec<f32> = (0..53 * 64).map(|_| (rng() % 2) as f32).collect();
        let x = Dense::from_vec(53, 64, xdata);
        for act in [Activation::Linear, Activation::Threshold] {
            let ys = forward_sparse(&w, &bias, &x, act, Device::Serial);
            let yp = forward_sparse(&w, &bias, &x, act, Device::Parallel);
            assert_eq!(ys, yp, "{act:?}");
        }
    }

    #[test]
    fn dense_matches_sparse() {
        let ws = w();
        let wd = Dense::from_vec(2, 3, vec![1.0, 0.0, 2.0, 0.0, -1.0, 0.0]);
        let x = Dense::from_vec(3, 3, vec![1., 0., 1., 0., 1., 1., 0., 0., 1.]);
        for act in [Activation::Linear, Activation::Threshold] {
            for dev in [Device::Serial, Device::Parallel] {
                let a = forward_sparse(&ws, &[0.5, 0.5], &x, act, dev);
                let d = forward_dense(&wd, &[0.5, 0.5], &x, act, dev);
                assert_eq!(a, d, "{act:?} {dev:?}");
            }
        }
    }

    #[test]
    fn integer_kernel_agrees_with_float() {
        let wf = w();
        let wi: Csr<i32> = wf.cast(|v| v as i32);
        let xf = Dense::from_vec(3, 2, vec![1.0, 1.0, 0.0, 1.0, 1.0, 0.0]);
        let xi = Dense::from_vec(3, 2, vec![1, 1, 0, 1, 1, 0]);
        let yf = forward_sparse(&wf, &[0.0; 2], &xf, Activation::Threshold, Device::Serial);
        let yi = forward_sparse(&wi, &[0; 2], &xi, Activation::Threshold, Device::Serial);
        let yf_as_i: Vec<i32> = yf.data().iter().map(|&v| v as i32).collect();
        assert_eq!(yf_as_i, yi.data());
    }

    #[test]
    fn empty_batch_is_fine() {
        let x = Dense::zeros(3, 0);
        let y = forward_sparse(&w(), &[0.0; 2], &x, Activation::Linear, Device::Parallel);
        assert_eq!(y.rows(), 2);
        assert_eq!(y.cols(), 0);
    }
}
