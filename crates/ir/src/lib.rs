//! # helix-ir
//!
//! A register-based, three-address compiler intermediate representation (IR) used as the
//! substrate for the HELIX reproduction (Campanoni et al., CGO 2012).
//!
//! The paper implements HELIX inside the ILDJIT compilation framework, which operates on a
//! CIL-derived mid-level IR. This crate provides the equivalent substrate: explicit control
//! flow graphs of basic blocks, virtual registers, loads/stores against a flat word-addressed
//! memory, direct calls, and the two synchronization pseudo-instructions (`Wait`/`Signal`)
//! that the HELIX transformation inserts.
//!
//! The crate also contains a sequential interpreter with a configurable cycle cost model.
//! Profiling, loop selection, the parallel runtime and the timing simulator are all built on
//! top of this interpreter.
//!
//! ## Quick example
//!
//! ```
//! use helix_ir::builder::FunctionBuilder;
//! use helix_ir::module::Module;
//! use helix_ir::instr::{BinOp, Operand, Pred};
//! use helix_ir::interp::Machine;
//!
//! // Build: fn sum(n) { s = 0; i = 0; while i < n { s += i; i += 1 } return s }
//! let mut module = Module::new("example");
//! let mut b = FunctionBuilder::new("sum", 1);
//! let n = b.param(0);
//! let s = b.new_var();
//! let i = b.new_var();
//! let header = b.new_block();
//! let body = b.new_block();
//! let exit = b.new_block();
//! b.const_int(s, 0);
//! b.const_int(i, 0);
//! b.br(header);
//! b.switch_to(header);
//! let c = b.cmp_to_new(Pred::Lt, Operand::Var(i), Operand::Var(n));
//! b.cond_br(Operand::Var(c), body, exit);
//! b.switch_to(body);
//! b.binary(s, BinOp::Add, Operand::Var(s), Operand::Var(i));
//! b.binary(i, BinOp::Add, Operand::Var(i), Operand::int(1));
//! b.br(header);
//! b.switch_to(exit);
//! b.ret(Some(Operand::Var(s)));
//! let f = module.add_function(b.finish());
//!
//! let mut machine = Machine::new(&module);
//! let result = machine.call(f, &[10i64.into()]).unwrap();
//! assert_eq!(result.unwrap().as_int(), 45);
//! ```

pub mod builder;
pub mod cost;
pub mod exec;
pub mod function;
pub mod ids;
pub mod instr;
pub mod interp;
pub mod lower;
pub mod memory;
pub mod module;
pub mod printer;
pub mod value;
pub mod verify;

pub use builder::{FunctionBuilder, ModuleBuilder};
pub use cost::CostModel;
pub use exec::ImageMachine;
pub use function::{BasicBlock, Function};
pub use ids::{BlockId, DepId, FuncId, GlobalId, InstrRef, VarId};
pub use instr::{BinOp, Instr, Operand, Pred, UnOp};
pub use interp::{ExecStats, Machine, Observer};
pub use lower::{ExecImage, FuncImage, Op, Opnd};
pub use memory::Memory;
pub use module::{Global, Module};
pub use value::Value;
pub use verify::{verify_function, verify_module, VerifyError};
