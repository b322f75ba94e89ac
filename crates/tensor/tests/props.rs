//! Property tests for the tensor substrate: the sparse kernels agree with
//! naive dense reference implementations on random matrices.

use c2nn_tensor::{
    forward_dense, forward_sparse, forward_sparse_into, Activation, Csr, Dense, Device, Scalar,
};
use proptest::prelude::*;

type Trip = (u32, u32, i32);

/// Batch widths on both sides of each regime change of the sparse kernel
/// (register accumulation for narrow batches, AXPY for wide ones) and of a
/// 64-lane word.
const WIDTHS: [usize; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65];

/// `forward_sparse_into` at every width in [`WIDTHS`], on both devices and
/// with both activations, against the naive dense sum `bias + Σ_k W[j][k] ·
/// x[k][l]` computed in `i64`, bit for bit. One output buffer is reused
/// across widths, as the simulator reuses its scratch.
fn check_forward_sparse<T: Scalar>(
    (rows, cols): (usize, usize),
    trips: &[Trip],
    bias: &[i32],
    xpool: &[i32],
) {
    let typed = trips.iter().map(|&(r, c, v)| (r, c, T::from_i32(v)));
    let w: Csr<T> = Csr::from_triplets(rows, cols, typed.collect());
    let wd = dense_of(rows, cols, trips);
    let b: Vec<T> = bias.iter().map(|&v| T::from_i32(v)).collect();
    let xv = |k: usize, l: usize| xpool[(k * 65 + l) % xpool.len()];
    let (mut ys, mut yp) = (Dense::zeros(0, 0), Dense::zeros(0, 0));
    for batch in WIDTHS {
        let xdata = (0..cols).flat_map(|k| (0..batch).map(move |l| T::from_i32(xv(k, l))));
        let x = Dense::from_vec(cols, batch, xdata.collect());
        for act in [Activation::Linear, Activation::Threshold] {
            forward_sparse_into(&w, &b, &x, act, Device::Serial, &mut ys);
            forward_sparse_into(&w, &b, &x, act, Device::Parallel, &mut yp);
            prop_assert_eq!((ys.rows(), ys.cols()), (rows, batch));
            prop_assert_eq!((yp.rows(), yp.cols()), (rows, batch));
            for j in 0..rows {
                for l in 0..batch {
                    let dot: i64 = (0..cols).map(|k| wd[j * cols + k] * xv(k, l) as i64).sum();
                    let acc = bias[j] as i64 + dot;
                    let want = match act {
                        Activation::Linear => acc,
                        Activation::Threshold => (acc > 0) as i64,
                    };
                    let want = T::from_i32(want as i32).to_bits64();
                    for (device, y) in [("serial", &ys), ("parallel", &yp)] {
                        prop_assert_eq!(
                            y.get(j, l).to_bits64(),
                            want,
                            "{} {} {:?} × {} lanes: row {} lane {}",
                            device,
                            T::NAME,
                            act,
                            batch,
                            j,
                            l
                        );
                    }
                }
            }
        }
    }
}

fn trips_strategy(rows: u32, cols: u32, max: usize) -> impl Strategy<Value = Vec<Trip>> {
    proptest::collection::vec((0..rows, 0..cols, -4i32..5), 0..max)
}

fn dense_of(rows: usize, cols: usize, trips: &[Trip]) -> Vec<i64> {
    let mut d = vec![0i64; rows * cols];
    for &(r, c, v) in trips {
        d[r as usize * cols + c as usize] += v as i64;
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// from_triplets sums duplicates and agrees with the dense accumulation.
    #[test]
    fn triplets_accumulate(trips in trips_strategy(9, 7, 40)) {
        let m: Csr<i32> = Csr::from_triplets(9, 7, trips.clone());
        let d = dense_of(9, 7, &trips);
        for r in 0..9 {
            for c in 0..7 {
                prop_assert_eq!(m.get(r, c) as i64, d[r * 7 + c]);
            }
        }
        // nnz counts only true nonzeros
        prop_assert_eq!(m.nnz(), d.iter().filter(|&&v| v != 0).count());
    }

    /// SpGEMM equals the straightforward dense product.
    #[test]
    fn spgemm_equals_dense(
        a_trips in trips_strategy(6, 8, 30),
        b_trips in trips_strategy(8, 5, 30),
    ) {
        let a: Csr<i32> = Csr::from_triplets(6, 8, a_trips.clone());
        let b: Csr<i32> = Csr::from_triplets(8, 5, b_trips.clone());
        let c = a.matmul(&b);
        let da = dense_of(6, 8, &a_trips);
        let db = dense_of(8, 5, &b_trips);
        for i in 0..6 {
            for j in 0..5 {
                let want: i64 = (0..8).map(|k| da[i * 8 + k] * db[k * 5 + j]).sum();
                prop_assert_eq!(c.get(i, j) as i64, want, "({},{})", i, j);
            }
        }
    }

    /// Sparse forward = dense forward, serial = parallel, on random layers.
    #[test]
    fn forwards_agree(
        trips in trips_strategy(10, 12, 50),
        bias in proptest::collection::vec(-3i32..4, 10),
        xbits in proptest::collection::vec(any::<bool>(), 12 * 5),
        threshold in any::<bool>(),
    ) {
        let w: Csr<i32> = Csr::from_triplets(10, 12, trips.clone());
        let dvals: Vec<i32> = w.to_dense();
        let wd = Dense::from_vec(10, 12, dvals);
        let xvals: Vec<i32> = xbits.iter().map(|&b| b as i32).collect();
        let x = Dense::from_vec(12, 5, xvals);
        let act = if threshold { Activation::Threshold } else { Activation::Linear };
        let ys = forward_sparse(&w, &bias, &x, act, Device::Serial);
        let yp = forward_sparse(&w, &bias, &x, act, Device::Parallel);
        let yd = forward_dense(&wd, &bias, &x, act, Device::Serial);
        prop_assert_eq!(&ys, &yp);
        prop_assert_eq!(&ys, &yd);
        // manual reference for one lane
        for (j, &bj) in bias.iter().enumerate() {
            for lane in 0..5 {
                let mut acc = bj as i64;
                for k in 0..12 {
                    acc += w.get(j, k) as i64 * x.get(k, lane) as i64;
                }
                let want = if threshold { (acc > 0) as i64 } else { acc };
                prop_assert_eq!(ys.get(j, lane) as i64, want);
            }
        }
    }

    /// The sparse kernel is exact at every batch width, in both dtypes the
    /// simulator runs (`f32`, and `i32` for the dtype ablation). Rows past
    /// 64 split the parallel device's work into several tasks; most rows of
    /// a layer this sparse are empty, and weights go negative.
    #[test]
    fn sparse_forward_is_exact_at_every_width(
        rows in 65usize..130,
        cols in 1usize..24,
        trips in proptest::collection::vec((0u32..130, 0u32..24, -4i32..5), 0..160),
        bias in proptest::collection::vec(-3i32..4, 130),
        xpool in proptest::collection::vec(-1i32..3, 1..80),
    ) {
        let fits = |&&(r, c, _): &&Trip| (r as usize) < rows && (c as usize) < cols;
        let trips: Vec<Trip> = trips.iter().filter(fits).copied().collect();
        check_forward_sparse::<f32>((rows, cols), &trips, &bias[..rows], &xpool);
        check_forward_sparse::<i32>((rows, cols), &trips, &bias[..rows], &xpool);
    }

    /// matvec equals a row of SpMM.
    #[test]
    fn matvec_consistent(trips in trips_strategy(8, 8, 30), v in proptest::collection::vec(-3i32..4, 8)) {
        let m: Csr<i32> = Csr::from_triplets(8, 8, trips);
        let y = m.matvec(&v);
        let x = Dense::from_vec(8, 1, v.clone());
        let y2 = forward_sparse(&m, &[0; 8], &x, Activation::Linear, Device::Serial);
        for (j, &yj) in y.iter().enumerate() {
            prop_assert_eq!(yj, y2.get(j, 0));
        }
    }

    /// Lane encode/decode round-trips.
    #[test]
    fn lanes_roundtrip(lanes in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 9), 1..6)) {
        let m: Dense<f32> = Dense::from_lanes(&lanes);
        prop_assert_eq!(m.rows(), 9);
        prop_assert_eq!(m.cols(), lanes.len());
        prop_assert_eq!(m.to_lanes(), lanes);
    }
}
