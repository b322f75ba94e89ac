//! # c2nn-boolfn
//!
//! Boolean-function core of the C2NN workspace: bit-packed truth tables,
//! sparse multilinear polynomials, and the transforms between them —
//! including the paper's **Algorithm 1** (divide-and-conquer LUT →
//! polynomial conversion) and the DNF baseline it is compared against in
//! Figure 4.
//!
//! ## The representation (paper Eq. 1)
//!
//! Every Boolean function has a unique multilinear ("Hamiltonian") extension
//! `f(x) = Σ_{S} w_S ∏_{s∈S} x_s` with integer coefficients. Evaluating it
//! at Boolean points reproduces the function *exactly* — the property that
//! lets the neural network compiler in `c2nn-core` build networks that are
//! bit-identical to the circuit, not approximations.
//!
//! ```
//! use c2nn_boolfn::{Lut, lut_to_poly};
//!
//! let xor = Lut::xor(2);
//! let p = lut_to_poly(&xor);          // x0 + x1 − 2·x0·x1
//! assert_eq!(p.to_algebra(), "x0 + x1 - 2·x0·x1");
//! for x in 0..4u32 {
//!     assert_eq!(p.eval_mask(x), (x.count_ones() % 2) as i64);
//! }
//! ```

pub mod analysis;
pub mod lut;
pub mod poly;
pub mod transform;

pub use lut::Lut;
pub use poly::{Polynomial, Term};
pub use transform::{known, lut_to_poly, lut_to_poly_dnf, poly_to_lut};
