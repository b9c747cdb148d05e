//! The whole-program arena: classes, methods and fields, plus lookups.

use crate::class::{Class, Field};
use crate::method::Method;
use std::collections::HashMap;
use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(u32);

        impl $name {
            /// Builds an id from a raw index.
            pub fn from_index(index: u32) -> Self {
                Self(index)
            }

            /// The raw index of this id.
            pub fn index(self) -> u32 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifier of a class within a [`Program`].
    ClassId,
    "c"
);
id_type!(
    /// Identifier of a method within a [`Program`].
    MethodId,
    "m"
);
id_type!(
    /// Identifier of a field within a [`Program`].
    FieldId,
    "f"
);

/// A complete program: library classes plus client classes.
///
/// Programs are immutable once built (see [`crate::builder::ProgramBuilder`]);
/// all lookups go through ids, which are stable and cheap to copy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    pub(crate) classes: Vec<Class>,
    pub(crate) methods: Vec<Method>,
    pub(crate) fields: Vec<Field>,
    pub(crate) class_by_name: HashMap<String, ClassId>,
    /// The synthetic field used to collapse all array elements, as described
    /// in Section 2 of the paper ("collapses arrays into a single field").
    pub(crate) elems_field: Option<FieldId>,
    /// Entry-point methods (e.g. the `main`/`test` methods of client apps).
    pub(crate) entry_points: Vec<MethodId>,
}

impl Program {
    /// Creates an empty program.  Prefer [`crate::builder::ProgramBuilder`].
    pub fn new() -> Program {
        Program::default()
    }

    /// The class with the given id.
    ///
    /// # Panics
    /// Panics if the id does not belong to this program.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index() as usize]
    }

    /// The method with the given id.
    ///
    /// # Panics
    /// Panics if the id does not belong to this program.
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.index() as usize]
    }

    /// The field with the given id.
    ///
    /// # Panics
    /// Panics if the id does not belong to this program.
    pub fn field(&self, id: FieldId) -> &Field {
        &self.fields[id.index() as usize]
    }

    /// All classes, in id order.
    pub fn classes(&self) -> impl Iterator<Item = &Class> {
        self.classes.iter()
    }

    /// All methods, in id order.
    pub fn methods(&self) -> impl Iterator<Item = &Method> {
        self.methods.iter()
    }

    /// All fields, in id order.
    pub fn fields(&self) -> impl Iterator<Item = &Field> {
        self.fields.iter()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Number of methods.
    pub fn num_methods(&self) -> usize {
        self.methods.len()
    }

    /// Number of fields (including the synthetic `$elems` field).
    pub fn num_fields(&self) -> usize {
        self.fields.len()
    }

    /// Looks up a class by name.
    pub fn class_named(&self, name: &str) -> Option<ClassId> {
        self.class_by_name.get(name).copied()
    }

    /// Looks up a method by class and simple name.  If the class does not
    /// declare it, superclasses are searched (static resolution of inherited
    /// methods).
    pub fn method_of(&self, class: ClassId, name: &str) -> Option<MethodId> {
        let mut current = Some(class);
        while let Some(c) = current {
            let class = self.class(c);
            for &m in &class.methods {
                if self.method(m).name == name {
                    return Some(m);
                }
            }
            current = class.superclass;
        }
        None
    }

    /// Looks up a method by `"Class.method"` qualified name.
    pub fn method_qualified(&self, qualified: &str) -> Option<MethodId> {
        let (class, method) = qualified.split_once('.')?;
        self.method_of(self.class_named(class)?, method)
    }

    /// The qualified `"Class.method"` name of a method.
    pub fn qualified_name(&self, method: MethodId) -> String {
        let m = self.method(method);
        format!("{}.{}", self.class(m.class).name, m.name)
    }

    /// Looks up a field declared by `class` (or a superclass) by name.
    pub fn field_named(&self, class: ClassId, name: &str) -> Option<FieldId> {
        let mut current = Some(class);
        while let Some(c) = current {
            let cl = self.class(c);
            for &f in &cl.fields {
                if self.field(f).name == name {
                    return Some(f);
                }
            }
            current = cl.superclass;
        }
        None
    }

    /// The synthetic field to which all array elements are collapsed.
    ///
    /// # Panics
    /// Panics if the program was constructed without the builder (which
    /// always creates the field).
    pub fn elems_field(&self) -> FieldId {
        self.elems_field
            .expect("program built without $elems field")
    }

    /// Entry-point methods registered by the builder.
    pub fn entry_points(&self) -> &[MethodId] {
        &self.entry_points
    }

    /// All methods of library classes that are public (the *library
    /// interface* given to Atlas).
    pub fn library_methods(&self) -> impl Iterator<Item = &Method> {
        self.methods
            .iter()
            .filter(|m| self.class(m.class).is_library && m.is_public)
    }

    /// All classes marked as library classes.
    pub fn library_classes(&self) -> impl Iterator<Item = &Class> {
        self.classes.iter().filter(|c| c.is_library)
    }

    /// Returns `true` if `sub` is `sup` or a (transitive) subclass of `sup`.
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut current = Some(sub);
        while let Some(c) = current {
            if c == sup {
                return true;
            }
            current = self.class(c).superclass;
        }
        false
    }

    /// Constructors (`<init>` methods) of the given class.
    pub fn constructors_of(&self, class: ClassId) -> Vec<MethodId> {
        self.class(class)
            .methods
            .iter()
            .copied()
            .filter(|&m| self.method(m).is_constructor)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::types::Type;

    fn sample() -> Program {
        let mut pb = ProgramBuilder::new();
        let object = pb.class("Object").build();
        let mut base = pb.class("AbstractList");
        base.library(true);
        base.extends(object);
        base.field("modCount", Type::Int);
        let mut size = base.method("size");
        size.returns(Type::Int);
        size.this();
        size.finish();
        let base_id = base.build();
        let mut list = pb.class("ArrayList");
        list.library(true);
        list.extends(base_id);
        let mut add = list.method("add");
        add.public(true);
        add.this();
        add.param("e", Type::object());
        add.finish();
        let mut init = list.constructor();
        init.this();
        init.finish();
        list.build();
        pb.build()
    }

    #[test]
    fn lookup_and_inheritance() {
        let p = sample();
        let list = p.class_named("ArrayList").unwrap();
        let base = p.class_named("AbstractList").unwrap();
        assert!(p.is_subclass(list, base));
        assert!(!p.is_subclass(base, list));
        // inherited method resolution
        assert!(p.method_of(list, "size").is_some());
        assert!(p.method_of(list, "nosuch").is_none());
        // inherited field resolution
        assert!(p.field_named(list, "modCount").is_some());
        // qualified lookup
        let add = p.method_qualified("ArrayList.add").unwrap();
        assert_eq!(p.qualified_name(add), "ArrayList.add");
        assert!(p.method_qualified("Nope.add").is_none());
        assert!(p.method_qualified("ArrayList").is_none());
    }

    #[test]
    fn library_interface_and_constructors() {
        let p = sample();
        let list = p.class_named("ArrayList").unwrap();
        let lib_methods: Vec<_> = p.library_methods().map(|m| m.name().to_string()).collect();
        assert!(lib_methods.contains(&"add".to_string()));
        assert_eq!(p.constructors_of(list).len(), 1);
        assert_eq!(p.library_classes().count(), 2);
        assert!(p.elems_field.is_some());
    }

    #[test]
    fn id_display() {
        assert_eq!(ClassId::from_index(2).to_string(), "c2");
        assert_eq!(MethodId::from_index(5).to_string(), "m5");
        assert_eq!(FieldId::from_index(1).to_string(), "f1");
        assert_eq!(ClassId::from_index(7).index(), 7);
    }
}
