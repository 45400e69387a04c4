//! mini-C: the source language of the OM reproduction's compiler.
//!
//! A small C-shaped language — 64-bit `int`, IEEE `float`, global scalars and
//! fixed-size arrays, exported and `static` functions, and `fnptr` procedure
//! variables — rich enough to generate SPEC92-shaped workloads that exercise
//! every address-calculation pattern the paper optimizes. The crate provides
//! the lexer, parser, semantic checker, lowering to a three-address IR, and a
//! reference interpreter used as the behavioral oracle for the whole
//! pipeline.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "
//!     int squares[10];
//!     int main() {
//!         int i = 0;
//!         for (i = 0; i < 10; i = i + 1) { squares[i] = i * i; }
//!         return squares[7];
//!     }";
//! let unit = om_minic::parse_unit("demo", src)?;
//! let ir = om_minic::lower_unit(&unit)?;
//! let mut program = om_minic::interp::Program::new(std::slice::from_ref(&ir));
//! assert_eq!(program.run_main(100_000)?, 49);
//! # Ok(())
//! # }
//! ```

pub mod ast;
pub mod error;
pub mod interp;
pub mod ir;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod sema;
pub mod token;

pub use error::CompileError;
pub use lower::lower_unit;
pub use parser::parse_unit;
pub use sema::{check_unit, UnitInfo};
