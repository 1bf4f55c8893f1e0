//! Modules and global memory objects.

use crate::function::Function;
use crate::ids::{FuncId, GlobalId};
use crate::value::Value;

/// A statically allocated memory object.
///
/// Globals model the statically allocated arrays and scalars of the benchmark programs. They
/// are also how the HELIX transformation materializes *loop boundary live variables* (Step 7):
/// values produced in one loop iteration and consumed in another are demoted to loads/stores
/// on a dedicated global so that parallel threads share them through memory.
#[derive(Clone, Debug, PartialEq)]
pub struct Global {
    /// The global's identifier within its module.
    pub id: GlobalId,
    /// Human-readable name.
    pub name: String,
    /// Size of the object in memory words.
    pub words: usize,
    /// Initial values for the first `init.len()` words; the rest are zero.
    pub init: Vec<Value>,
}

/// A whole program: functions plus global memory objects.
#[derive(Clone, Debug, PartialEq)]
pub struct Module {
    /// Module name, used only for diagnostics.
    pub name: String,
    /// Functions indexed by [`FuncId`].
    pub functions: Vec<Function>,
    /// Globals indexed by [`GlobalId`].
    pub globals: Vec<Global>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            functions: Vec::new(),
            globals: Vec::new(),
        }
    }

    /// Adds a function and returns its id.
    pub fn add_function(&mut self, function: Function) -> FuncId {
        let id = FuncId::new(self.functions.len() as u32);
        self.functions.push(function);
        id
    }

    /// Adds a zero-initialized global of `words` words and returns its id.
    pub fn add_global(&mut self, name: impl Into<String>, words: usize) -> GlobalId {
        self.add_global_init(name, words, Vec::new())
    }

    /// Adds a global with explicit initial values.
    ///
    /// # Panics
    ///
    /// Panics if `init` is longer than `words`.
    pub fn add_global_init(
        &mut self,
        name: impl Into<String>,
        words: usize,
        init: Vec<Value>,
    ) -> GlobalId {
        assert!(init.len() <= words, "initializer longer than the global");
        let id = GlobalId::new(self.globals.len() as u32);
        self.globals.push(Global {
            id,
            name: name.into(),
            words,
            init,
        });
        id
    }

    /// Returns the function with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the function does not exist.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Returns a mutable reference to the function with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the function does not exist.
    pub fn function_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.functions[id.index()]
    }

    /// Looks up a function by name.
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId::new(i as u32))
    }

    /// Returns the global with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the global does not exist.
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.index()]
    }

    /// Iterates over all function ids.
    pub fn function_ids(&self) -> impl Iterator<Item = FuncId> + '_ {
        (0..self.functions.len() as u32).map(FuncId::new)
    }

    /// Total number of words of global memory (the base of the heap in the interpreter).
    pub fn global_memory_words(&self) -> usize {
        self.globals.iter().map(|g| g.words).sum()
    }

    /// Computes the base address of each global in the flat memory layout.
    ///
    /// Globals are laid out contiguously, in declaration order, starting at address 1 (word 0
    /// is reserved so that address 0 can serve as a null pointer).
    pub fn global_base_addresses(&self) -> Vec<i64> {
        let mut bases = Vec::with_capacity(self.globals.len());
        let mut next = 1i64;
        for g in &self.globals {
            bases.push(next);
            next += g.words as i64;
        }
        bases
    }

    /// Total number of instructions in the module.
    pub fn instr_count(&self) -> usize {
        self.functions.iter().map(Function::instr_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup_functions() {
        let mut m = Module::new("m");
        let f0 = m.add_function(Function::new("main", 0));
        let f1 = m.add_function(Function::new("helper", 2));
        assert_eq!(f0, FuncId::new(0));
        assert_eq!(f1, FuncId::new(1));
        assert_eq!(m.function(f1).name, "helper");
        assert_eq!(m.function_by_name("main"), Some(f0));
        assert_eq!(m.function_by_name("missing"), None);
        assert_eq!(m.function_ids().count(), 2);
    }

    #[test]
    fn global_layout_reserves_null() {
        let mut m = Module::new("m");
        let a = m.add_global("a", 10);
        let b = m.add_global("b", 4);
        assert_eq!(m.global(a).words, 10);
        assert_eq!(m.global(b).name, "b");
        assert_eq!(m.global_base_addresses(), vec![1, 11]);
        assert_eq!(m.global_memory_words(), 14);
    }

    #[test]
    fn global_with_initializer() {
        let mut m = Module::new("m");
        let g = m.add_global_init("init", 3, vec![Value::Int(7), Value::Float(1.5)]);
        assert_eq!(m.global(g).init.len(), 2);
    }

    #[test]
    #[should_panic(expected = "initializer longer than the global")]
    fn oversized_initializer_panics() {
        let mut m = Module::new("m");
        m.add_global_init("bad", 1, vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn instr_count_sums_functions() {
        let mut m = Module::new("m");
        m.add_function(Function::new("empty", 0));
        assert_eq!(m.instr_count(), 0);
    }
}
