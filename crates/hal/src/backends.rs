//! The three built-in execution backends, ported from the former
//! `BackendKind`/`AnyRunner` ad-hoc dispatch:
//!
//! * `scalar` — dense `f32` lanes over CSR layers, serial dispatch. The
//!   lowest launch overhead; wins on tiny models and tiny batches.
//! * `pooled-csr` — the same CSR kernels sharded on the shared worker
//!   pool ([`c2nn_tensor::Pool`]). The paper's stimulus parallelism.
//! * `bitplane` — 64 stimuli per machine word over word ops (see
//!   [`c2nn_core::bitplane`]). Requires exact integral weights; refuses
//!   admission otherwise.
//!
//! All three run the same [`Runner`] contract with bit-exact semantics —
//! the shared conformance suite ([`crate::conformance`]) holds them to it.
//! A runner *is* the engine's fixed-batch simulator: `Simulator<f32>` for
//! the CSR backends, `BitplaneSimulator` for the packed one.

use crate::backend::{Backend, Manifest, Plan, Reject, Runner};
use c2nn_core::bitplane::BitplaneNn;
use c2nn_core::{BitTensor, BitplaneSimulator, CompiledNn, SimError, Simulator, StepShape};
use c2nn_tensor::Device;
use std::sync::Arc;

/// Both engines expose the loop under the same inherent names.
macro_rules! impl_runner {
    ($engine:ty) => {
        impl Runner for $engine {
            fn shape(&self) -> StepShape {
                <$engine>::shape(self)
            }

            fn reset(&mut self, lanes: usize) {
                <$engine>::reset(self, lanes)
            }

            fn advance(&mut self, x: &BitTensor, y: &mut BitTensor) -> Result<(), SimError> {
                self.step_packed_into(x, y)
            }

            fn read_state(&self, planes: &mut BitTensor) {
                <$engine>::read_state(self, planes)
            }

            fn write_state(&mut self, planes: &BitTensor) {
                <$engine>::write_state(self, planes)
            }
        }
    };
}

impl_runner!(Simulator<'_, f32>);
impl_runner!(BitplaneSimulator<'_>);

/// A CSR-lane backend: `scalar` (serial) or `pooled-csr` (worker pool).
pub struct CsrBackend {
    name: &'static str,
    device: Device,
}

impl CsrBackend {
    /// The serial single-thread engine.
    pub fn scalar() -> Self {
        CsrBackend {
            name: "scalar",
            device: Device::Serial,
        }
    }

    /// The pool-sharded engine (the default before the HAL existed).
    pub fn pooled() -> Self {
        CsrBackend {
            name: "pooled-csr",
            device: Device::Parallel,
        }
    }
}

struct CsrPlan {
    backend: &'static str,
    device: Device,
    nn: Arc<CompiledNn<f32>>,
    manifest: Manifest,
}

impl Plan for CsrPlan {
    fn backend(&self) -> &str {
        self.backend
    }

    fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    fn nn(&self) -> &Arc<CompiledNn<f32>> {
        &self.nn
    }

    fn runner(&self) -> Box<dyn Runner + '_> {
        Box::new(Simulator::new(&self.nn, 0, self.device))
    }
}

impl Backend for CsrBackend {
    fn name(&self) -> &'static str {
        self.name
    }

    fn admit(&self, nn: &Arc<CompiledNn<f32>>) -> Result<Arc<dyn Plan>, Reject> {
        if nn.layers.is_empty() {
            return Err(Reject {
                backend: self.name.to_string(),
                reason: "network has no layers".to_string(),
            });
        }
        let manifest = Manifest {
            backend: self.name.to_string(),
            lanes_per_word: 1,
            layers: nn.num_layers() as u64,
            // one MAC per nonzero weight per lane per cycle
            cheap_units: nn.connections() as f64,
            weighted_units: 0.0,
        };
        Ok(Arc::new(CsrPlan {
            backend: self.name,
            device: self.device,
            nn: Arc::clone(nn),
            manifest,
        }))
    }
}

/// The packed-bitplane backend: 64 stimuli per word; admission legalizes
/// the network to a [`BitplaneNn`] (typed refusal for non-integral
/// weights) and prices its gate ops and counter rows separately.
///
/// Any compiled network is admitted, but the pass set decides what it
/// costs: layer-merge trades depth for dense integer rows — a win for CSR
/// arithmetic — and those rows force the executor into its counter
/// fallback ([`RowOp::Weighted`](c2nn_core::bitplane::RowOp)), whereas the
/// unmerged threshold/linear alternation legalizes popcount-free, to
/// single word ops per neuron.
pub struct BitplaneBackend;

struct BitplanePlan {
    nn: Arc<CompiledNn<f32>>,
    program: BitplaneNn,
    manifest: Manifest,
}

impl Plan for BitplanePlan {
    fn backend(&self) -> &str {
        "bitplane"
    }

    fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    fn nn(&self) -> &Arc<CompiledNn<f32>> {
        &self.nn
    }

    fn runner(&self) -> Box<dyn Runner + '_> {
        Box::new(BitplaneSimulator::new(&self.program, 0, Device::Parallel))
    }
}

impl Backend for BitplaneBackend {
    fn name(&self) -> &'static str {
        "bitplane"
    }

    fn admit(&self, nn: &Arc<CompiledNn<f32>>) -> Result<Arc<dyn Plan>, Reject> {
        if nn.layers.is_empty() {
            return Err(Reject {
                backend: "bitplane".to_string(),
                reason: "network has no layers".to_string(),
            });
        }
        let program = BitplaneNn::from_compiled(nn.as_ref()).map_err(|e| Reject {
            backend: "bitplane".to_string(),
            reason: e.to_string(),
        })?;
        let (cheap_units, weighted_units) = program.modeled_units();
        let manifest = Manifest {
            backend: "bitplane".to_string(),
            lanes_per_word: 64,
            layers: program.num_layers() as u64,
            cheap_units,
            weighted_units,
        };
        Ok(Arc::new(BitplanePlan {
            nn: Arc::clone(nn),
            program,
            manifest,
        }))
    }
}
