//! Word-parallel execution of a bit-plane program.
//!
//! One forward pass evaluates each output plane from the input planes with
//! plain word ops: 64 stimulus lanes advance per AND/OR/XOR. Everything is
//! lane-wise, so ragged batches need no masking — garbage in the tail bits
//! stays in the tail bits.
//!
//! Rows are independent, so layers dispatch on the shared worker pool in
//! whole-plane chunks (`W` words each), mirroring the CSR path's
//! row-sharded `par_chunks_mut`.

use super::pack::BitTensor;
use super::plan::{BitLayer, BitplaneNn, RowOp};
use c2nn_tensor::par::par_chunks_mut;
use c2nn_tensor::Device;

/// Ping-pong buffers for a forward pass, reusable across calls.
#[derive(Clone, Debug, Default)]
pub struct BitplaneScratch {
    a: BitTensor,
    b: BitTensor,
}

impl BitplaneNn {
    /// Run the network on packed stimuli: `x` is `in_width × batch`
    /// (primary inputs followed by state planes). Returns the output
    /// tensor (`out_width × batch`) borrowed from `scratch`.
    ///
    /// Panics if the network has no layers or `x` has the wrong width
    /// (the simulator/runner wrappers surface those as typed errors).
    pub fn forward_with<'s>(
        &self,
        x: &BitTensor,
        device: Device,
        scratch: &'s mut BitplaneScratch,
    ) -> &'s BitTensor {
        assert!(!self.layers.is_empty(), "forward on empty network");
        assert_eq!(x.features(), self.in_width(), "input plane count");
        forward_layer(&self.layers[0], x, device, &mut scratch.a);
        let (mut src, mut dst) = (&mut scratch.a, &mut scratch.b);
        for layer in &self.layers[1..] {
            forward_layer(layer, src, device, dst);
            std::mem::swap(&mut src, &mut dst);
        }
        src
    }
}

/// Evaluate one layer into `y` (resized in place).
pub(crate) fn forward_layer(layer: &BitLayer, x: &BitTensor, device: Device, y: &mut BitTensor) {
    debug_assert_eq!(x.features(), layer.in_width);
    y.resize_to(layer.ops.len(), x.batch());
    let w = x.words_per_feature();
    if w == 0 || layer.ops.is_empty() {
        return;
    }
    // same shape as the CSR dispatch: shard rows, keep a few thousand
    // words of work per task
    let grain = (4096 / w).clamp(1, 256);
    match device {
        Device::Serial => {
            for (r, out) in y.data_mut().chunks_mut(w).enumerate() {
                eval_op(&layer.ops[r], x, out);
            }
        }
        Device::Parallel => {
            par_chunks_mut(y.data_mut(), w, grain, |r, out| {
                eval_op(&layer.ops[r], x, out)
            });
        }
    }
}

/// Evaluate one output plane (`out` is its `W` words).
fn eval_op(op: &RowOp, x: &BitTensor, out: &mut [u64]) {
    match op {
        RowOp::Const(b) => out.fill(if *b { !0 } else { 0 }),
        RowOp::Copy(c) => out.copy_from_slice(x.feature_words(*c as usize)),
        RowOp::Not(c) => {
            for (o, &v) in out.iter_mut().zip(x.feature_words(*c as usize)) {
                *o = !v;
            }
        }
        RowOp::And(srcs) => reduce(out, x, srcs, false, false),
        RowOp::Nand(srcs) => reduce(out, x, srcs, false, true),
        RowOp::Or(srcs) => reduce(out, x, srcs, true, false),
        RowOp::Nor(srcs) => reduce(out, x, srcs, true, true),
        RowOp::Xor { srcs, invert } => {
            out.fill(if *invert { !0 } else { 0 });
            for &c in srcs {
                for (o, &v) in out.iter_mut().zip(x.feature_words(c as usize)) {
                    *o ^= v;
                }
            }
        }
    }
}

fn reduce(out: &mut [u64], x: &BitTensor, srcs: &[u32], or: bool, negate: bool) {
    out.copy_from_slice(x.feature_words(srcs[0] as usize));
    for &c in &srcs[1..] {
        let f = x.feature_words(c as usize);
        if or {
            for (o, &v) in out.iter_mut().zip(f) {
                *o |= v;
            }
        } else {
            for (o, &v) in out.iter_mut().zip(f) {
                *o &= v;
            }
        }
    }
    if negate {
        for o in out.iter_mut() {
            *o = !*o;
        }
    }
}
