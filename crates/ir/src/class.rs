//! Classes and fields.

use crate::program::{ClassId, FieldId, MethodId};
use crate::types::Type;

/// A field declared by a class.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    pub(crate) id: FieldId,
    pub(crate) class: ClassId,
    pub(crate) name: String,
    pub(crate) ty: Type,
}

impl Field {
    /// The field's id within the program.
    pub fn id(&self) -> FieldId {
        self.id
    }

    /// The class that declares this field.
    pub fn class(&self) -> ClassId {
        self.class
    }

    /// The field's simple name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The field's declared type.
    pub fn ty(&self) -> &Type {
        &self.ty
    }
}

/// A class of the program (either library or client code).
#[derive(Debug, Clone, PartialEq)]
pub struct Class {
    pub(crate) id: ClassId,
    pub(crate) name: String,
    pub(crate) superclass: Option<ClassId>,
    pub(crate) fields: Vec<FieldId>,
    pub(crate) methods: Vec<MethodId>,
    pub(crate) is_library: bool,
}

impl Class {
    /// The class's id within the program.
    pub fn id(&self) -> ClassId {
        self.id
    }

    /// The class's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The superclass, if any.
    pub fn superclass(&self) -> Option<ClassId> {
        self.superclass
    }

    /// Ids of the fields declared directly by this class.
    pub fn fields(&self) -> &[FieldId] {
        &self.fields
    }

    /// Ids of the methods declared directly by this class.
    pub fn methods(&self) -> &[MethodId] {
        &self.methods
    }

    /// Whether the class belongs to the modeled library (as opposed to a
    /// client program).
    pub fn is_library(&self) -> bool {
        self.is_library
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::ProgramBuilder;
    use crate::types::Type;

    #[test]
    fn class_metadata() {
        let mut pb = ProgramBuilder::new();
        let object = pb.class("Object").build();
        let mut c = pb.class("Vector");
        c.library(true);
        c.extends(object);
        c.field("data", Type::object_array());
        c.field("size", Type::Int);
        c.build();
        let p = pb.build();
        let v = p.class_named("Vector").unwrap();
        let class = p.class(v);
        assert_eq!(class.name(), "Vector");
        assert_eq!(class.superclass(), Some(object));
        assert_eq!(class.fields().len(), 2);
        assert!(class.is_library());
        assert!(!p.class(object).is_library());
        let data = p.field_named(v, "data").unwrap();
        assert_eq!(p.field(data).name(), "data");
        assert_eq!(p.field(data).class(), v);
        assert_eq!(p.field(data).ty(), &Type::object_array());
    }
}
