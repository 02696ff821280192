//! Prototype compiler from the guide-types PPL to Pyro.
//!
//! The compiler's role in the paper's evaluation is twofold: the generated
//! code runs on Pyro's inference engines (here *substituted* by the native
//! Rust engines in `ppl-inference`), and its size and
//! generation time appear in Table 2 as GLOC and part of CG.
//!
//! # Example
//!
//! ```
//! use ppl_compiler::{compile_pair, Style};
//! use ppl_syntax::parse_program;
//!
//! let model = parse_program(
//!     "proc M() consume latent provide obs {
//!        let x <- sample recv latent (Unif);
//!        let _ <- sample send obs (Normal(x, 1.0));
//!        return () }",
//! ).unwrap();
//! let guide = parse_program(
//!     "proc G() provide latent {
//!        let x <- sample send latent (Unif);
//!        return () }",
//! ).unwrap();
//! let out = compile_pair(&model, "M", &guide, "G", Style::Coroutine);
//! assert!(out.model_code.contains("pyro"));
//! assert!(out.generated_loc > 0);
//! ```

pub mod pyro;

pub use pyro::{compile_pair, count_loc, CompiledPair, Style};
