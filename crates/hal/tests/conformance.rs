//! The backend-conformance suite run against every built-in backend: each
//! engine must be bit-exact vs the serial CSR `Simulator` and the
//! gate-level refsim on every suite circuit, honor ragged `execute_batch`
//! semantics, and produce identical typed shape errors. These are the
//! tests the CI `backend-conformance` job runs in release mode.

use c2nn_hal::{conformance, BackendRegistry};

fn backend(name: &str) -> std::sync::Arc<dyn c2nn_hal::Backend> {
    BackendRegistry::global()
        .get(name)
        .unwrap_or_else(|| panic!("`{name}` missing from the global registry"))
        .clone()
}

#[test]
fn scalar_is_bit_exact_on_the_suite() {
    conformance::check_backend(backend("scalar").as_ref());
}

#[test]
fn pooled_csr_is_bit_exact_on_the_suite() {
    conformance::check_backend(backend("pooled-csr").as_ref());
}

#[test]
fn bitplane_is_bit_exact_on_the_suite() {
    conformance::check_backend(backend("bitplane").as_ref());
}

#[test]
fn scalar_ragged_batches_match_run_batch() {
    conformance::check_ragged_batches(backend("scalar").as_ref());
}

#[test]
fn pooled_csr_ragged_batches_match_run_batch() {
    conformance::check_ragged_batches(backend("pooled-csr").as_ref());
}

#[test]
fn bitplane_ragged_batches_match_run_batch() {
    conformance::check_ragged_batches(backend("bitplane").as_ref());
}

#[test]
fn scalar_error_shapes_match_the_contract() {
    conformance::check_error_parity(backend("scalar").as_ref());
}

#[test]
fn pooled_csr_error_shapes_match_the_contract() {
    conformance::check_error_parity(backend("pooled-csr").as_ref());
}

#[test]
fn bitplane_error_shapes_match_the_contract() {
    conformance::check_error_parity(backend("bitplane").as_ref());
}

/// The per-backend tests above name every registered backend explicitly so
/// a failure is attributable from the test name alone; this guard makes
/// sure nobody adds a backend without wiring it into the suite.
#[test]
fn every_registered_backend_is_covered() {
    assert_eq!(
        BackendRegistry::global().names(),
        ["scalar", "pooled-csr", "bitplane"],
        "new backend registered: add its conformance tests to this file"
    );
}
