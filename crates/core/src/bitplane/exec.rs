//! Word-parallel execution of a bit-plane program over a plane file.
//!
//! The plane file holds every plane of one cycle, `W` words each: inputs
//! and state at its head, then each computed op's output in plane order.
//! Copies were resolved at lowering, so every op writes a new plane with
//! plain word ops — 64 stimulus lanes advance per AND/OR/XOR — and reads
//! only planes of earlier levels. Everything is lane-wise, so ragged
//! batches need no masking — garbage in the tail bits stays in the tail
//! bits.
//!
//! Ops within a level are independent, so each level is one dispatch on
//! the shared worker pool in whole-plane chunks, mirroring the CSR path's
//! row-sharded `par_chunks_mut`.

use super::plan::{BitplaneNn, Fold, Op};
use c2nn_tensor::par::par_chunks_mut;
use c2nn_tensor::Device;

impl BitplaneNn {
    /// Run every level over `planes` (`self.planes()` planes of `w` words
    /// each): its first `in_width()` planes hold the primary inputs and
    /// the state, every computed plane is written in place.
    pub(crate) fn forward(&self, planes: &mut [u64], w: usize, device: Device) {
        assert_eq!(planes.len(), self.planes() * w, "plane file size");
        if w == 0 {
            return;
        }
        // same shape as the CSR dispatch: shard rows, keep a few thousand
        // words of work per task
        let grain = (4096 / w).clamp(1, 256);
        let mut base = self.in_width();
        for &end in &self.level_ends {
            let end = end as usize;
            let (done, level) = planes[..end * w].split_at_mut(base * w);
            let ops = &self.ops[base - self.in_width()..end - self.in_width()];
            let eval = |r: usize, out: &mut [u64]| self.eval(ops[r], done, w, out);
            match device {
                Device::Serial => level
                    .chunks_mut(w)
                    .enumerate()
                    .for_each(|(r, o)| eval(r, o)),
                Device::Parallel => par_chunks_mut(level, w, grain, eval),
            }
            base = end;
        }
    }

    /// Evaluate one op into `out` (its `W` words) from the planes before
    /// its level.
    fn eval(&self, op: Op, done: &[u64], w: usize, out: &mut [u64]) {
        let plane = |c: u32| &done[c as usize * w..][..w];
        match self.operands[op.lo as usize..op.hi as usize].split_first() {
            None => out.fill(0),
            Some((&first, rest)) => {
                out.copy_from_slice(plane(first));
                match op.fold {
                    Fold::And => fold(out, rest, plane, |o, v| o & v),
                    Fold::Or => fold(out, rest, plane, |o, v| o | v),
                    Fold::Xor => fold(out, rest, plane, |o, v| o ^ v),
                }
            }
        }
        if op.negate {
            out.iter_mut().for_each(|o| *o = !*o);
        }
    }
}

fn fold<'p>(
    out: &mut [u64],
    srcs: &[u32],
    plane: impl Fn(u32) -> &'p [u64],
    f: impl Fn(u64, u64) -> u64,
) {
    for &c in srcs {
        for (o, &v) in out.iter_mut().zip(plane(c)) {
            *o = f(*o, v);
        }
    }
}
