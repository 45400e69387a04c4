//! Alpha AXP instruction-set subset for the OM link-time-optimization
//! reproduction (Srivastava & Wall, PLDI 1994).
//!
//! This crate is the bottom of the stack: a format-level instruction model
//! ([`Inst`]), binary [`encode()`](encode())/[`decode()`](decode()), each address
//! field's reach ([`field`]), a disassembler, register define/use summaries
//! ([`Effects`]) for dependence testing, and 21064-class latency/dual-issue
//! tables used by both the compile-time scheduler and the `om-sim` timing model.
//!
//! # Example
//!
//! ```
//! use om_alpha::{Inst, Reg, encode::encode, decode::decode};
//!
//! // The address load of a typical AXP call sequence: ldq pv, 144(gp)
//! let address_load = Inst::ldq(Reg::PV, 144, Reg::GP);
//! let word = encode(address_load);
//! assert_eq!(decode(word), Ok(address_load));
//! assert_eq!(address_load.to_string(), "ldq pv, 144(gp)");
//! ```

pub mod decode;
pub mod disasm;
pub mod effects;
pub mod encode;
pub mod field;
pub mod inst;
pub mod reg;
pub mod timing;

pub use decode::{decode, decode_all, DecodeError};
pub use effects::Effects;
pub use encode::{encode, encode_all};
pub use inst::{BrOp, FOprOp, Inst, JmpOp, MemOp, Operand, OprOp, PalOp};
pub use reg::Reg;
