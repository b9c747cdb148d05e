//! Methods and method-local variables.

use crate::program::{ClassId, MethodId};
use crate::stmt::Stmt;
use crate::types::Type;
use std::fmt;

/// A method-local variable, identified by its index within the method.
///
/// Variable 0 is always the receiver (`this`) for instance methods;
/// parameters follow, then locals, in order of declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(u32);

impl Var {
    /// Builds a variable from its raw index.
    pub fn from_index(index: u32) -> Var {
        Var(index)
    }

    /// The raw index of this variable within its method.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Metadata about a method-local variable.
#[derive(Debug, Clone, PartialEq)]
pub struct VarData {
    /// Source-level name (`this`, parameter name, or local name).
    pub name: String,
    /// Declared type.
    pub ty: Type,
}

/// A method of a class.
#[derive(Debug, Clone, PartialEq)]
pub struct Method {
    pub(crate) id: MethodId,
    pub(crate) class: ClassId,
    pub(crate) name: String,
    pub(crate) vars: Vec<VarData>,
    pub(crate) has_this: bool,
    pub(crate) num_params: usize,
    pub(crate) return_type: Type,
    pub(crate) body: Vec<Stmt>,
    pub(crate) is_native: bool,
    pub(crate) is_constructor: bool,
    pub(crate) is_public: bool,
}

impl Method {
    /// The method's id within the program.
    pub fn id(&self) -> MethodId {
        self.id
    }

    /// The class that declares this method.
    pub fn class(&self) -> ClassId {
        self.class
    }

    /// The method's simple name (e.g. `"add"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the method has a receiver (`this`).
    pub fn has_this(&self) -> bool {
        self.has_this
    }

    /// The receiver variable, if this is an instance method.
    pub fn this_var(&self) -> Option<Var> {
        if self.has_this {
            Some(Var(0))
        } else {
            None
        }
    }

    /// Number of declared (non-receiver) parameters.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// The `i`-th declared parameter variable (0-based, excluding `this`).
    pub fn param_var(&self, i: usize) -> Var {
        assert!(i < self.num_params, "parameter index out of range");
        let offset = if self.has_this { 1 } else { 0 };
        Var((offset + i) as u32)
    }

    /// All parameter variables (excluding the receiver), in order.
    pub fn param_vars(&self) -> Vec<Var> {
        (0..self.num_params).map(|i| self.param_var(i)).collect()
    }

    /// Metadata for variable `v`.
    pub fn var_data(&self, v: Var) -> &VarData {
        &self.vars[v.index() as usize]
    }

    /// All variables of the method (receiver, params, locals) in order.
    pub fn vars(&self) -> impl Iterator<Item = (Var, &VarData)> {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, d)| (Var(i as u32), d))
    }

    /// Number of variables (receiver + params + locals).
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// The declared return type.
    pub fn return_type(&self) -> &Type {
        &self.return_type
    }

    /// The method body.  Native methods have an empty body.
    pub fn body(&self) -> &[Stmt] {
        &self.body
    }

    /// Whether the method is native (implemented by an interpreter builtin,
    /// invisible to the static analysis).
    pub fn is_native(&self) -> bool {
        self.is_native
    }

    /// Whether the method is a constructor (`<init>`).
    pub fn is_constructor(&self) -> bool {
        self.is_constructor
    }

    /// Whether the method is public, i.e. part of the library interface.
    pub fn is_public(&self) -> bool {
        self.is_public
    }

    /// Whether the return type is a reference type.
    pub fn returns_reference(&self) -> bool {
        self.return_type.is_reference()
    }

    /// Looks up a variable by name.
    pub fn var_named(&self, name: &str) -> Option<Var> {
        self.vars
            .iter()
            .position(|d| d.name == name)
            .map(|i| Var(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    #[test]
    fn params_and_this() {
        let mut pb = ProgramBuilder::new();
        pb.class("Object").build();
        let mut c = pb.class("Pair");
        let mut m = c.method("put");
        let a = m.param("a", Type::object());
        let b = m.param("b", Type::Int);
        let this = m.this();
        assert_eq!(this, Var::from_index(0));
        assert_eq!(a, Var::from_index(1));
        assert_eq!(b, Var::from_index(2));
        m.finish();
        c.build();
        let p = pb.build();
        let pair = p.class_named("Pair").unwrap();
        let put = p.method_of(pair, "put").unwrap();
        let m = p.method(put);
        assert!(m.has_this());
        assert_eq!(m.num_params(), 2);
        assert_eq!(m.param_var(0), Var::from_index(1));
        assert_eq!(m.var_data(m.param_var(1)).name, "b");
        assert_eq!(m.var_named("a"), Some(Var::from_index(1)));
        assert_eq!(m.var_named("zzz"), None);
        assert!(!m.returns_reference());
    }
}
