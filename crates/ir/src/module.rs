//! Modules: class tables and function collections.

use std::collections::HashMap;
use std::fmt;

use crate::function::Function;
use crate::types::Type;

/// Size in bytes of the object header (class pointer / array length word).
/// Field offsets start after the header.
pub const OBJECT_HEADER_BYTES: u64 = 8;

/// Size in bytes of every field and array element slot in the model.
pub const SLOT_BYTES: u64 = 8;

/// Byte offset of the first array element (after header + length slot).
pub const ARRAY_ELEMENTS_OFFSET: u64 = 16;

macro_rules! module_id {
    ($(#[$meta:meta])* $name:ident, $sigil:expr) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Creates an id from a dense arena index.
            pub fn new(index: usize) -> Self {
                Self(u32::try_from(index).expect("id index overflow"))
            }
            /// Returns the dense arena index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", $sigil, self.0)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(self, f)
            }
        }
    };
}

module_id!(
    /// A class in a [`Module`]'s class table.
    ClassId,
    "class"
);
module_id!(
    /// A field in a [`Module`]'s global field arena.
    FieldId,
    "field"
);
module_id!(
    /// A function in a [`Module`].
    FunctionId,
    "fn"
);

/// A field declaration.
#[derive(Clone, PartialEq, Debug)]
pub struct Field {
    /// Field name (unique within its class).
    pub name: String,
    /// Field type.
    pub ty: Type,
    /// Byte offset from the object base. Normally assigned sequentially
    /// after the header; tests use large offsets to model the paper's
    /// "BigOffset" case (Figure 5 (1)).
    pub offset: u64,
    /// The class owning this field.
    pub class: ClassId,
}

/// A class: named fields plus a method table for virtual dispatch.
#[derive(Clone, PartialEq, Debug)]
pub struct Class {
    /// Class name (unique within the module).
    pub name: String,
    /// Fields declared by this class (ids into the module's field arena).
    pub fields: Vec<FieldId>,
    /// Virtual method table: method name → implementation.
    pub methods: HashMap<String, FunctionId>,
    /// Total object size in bytes (header + fields).
    pub size: u64,
}

/// A compilation unit: classes, fields, and functions.
///
/// # Example
/// ```
/// use njc_ir::{Module, Type};
/// let mut m = Module::new("m");
/// let c = m.add_class("Pair", &[("a", Type::Int), ("b", Type::Ref)]);
/// let f = m.field(c, "b").unwrap();
/// assert_eq!(m.field_decl(f).offset, 16);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct Module {
    name: String,
    classes: Vec<Class>,
    fields: Vec<Field>,
    functions: Vec<Function>,
    function_names: HashMap<String, FunctionId>,
    class_names: HashMap<String, ClassId>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            classes: Vec::new(),
            fields: Vec::new(),
            functions: Vec::new(),
            function_names: HashMap::new(),
            class_names: HashMap::new(),
        }
    }

    /// The module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a class with sequentially laid out fields and returns its id.
    ///
    /// # Panics
    /// Panics if a class with the same name exists.
    pub fn add_class(&mut self, name: impl Into<String>, fields: &[(&str, Type)]) -> ClassId {
        let with_offsets: Vec<(&str, Type, u64)> = fields
            .iter()
            .enumerate()
            .map(|(i, &(n, t))| (n, t, OBJECT_HEADER_BYTES + i as u64 * SLOT_BYTES))
            .collect();
        self.add_class_with_offsets(name, &with_offsets)
    }

    /// Adds a class with explicit field offsets (for modeling the paper's
    /// BigOffset scenario, where a field lies beyond the protected trap
    /// area).
    ///
    /// # Panics
    /// Panics if a class with the same name exists.
    pub fn add_class_with_offsets(
        &mut self,
        name: impl Into<String>,
        fields: &[(&str, Type, u64)],
    ) -> ClassId {
        let name = name.into();
        assert!(
            !self.class_names.contains_key(&name),
            "duplicate class {name}"
        );
        let id = ClassId::new(self.classes.len());
        let mut field_ids = Vec::with_capacity(fields.len());
        let mut max_end = OBJECT_HEADER_BYTES;
        for &(fname, ty, offset) in fields {
            let fid = FieldId::new(self.fields.len());
            self.fields.push(Field {
                name: fname.to_string(),
                ty,
                offset,
                class: id,
            });
            field_ids.push(fid);
            max_end = max_end.max(offset + SLOT_BYTES);
        }
        self.class_names.insert(name.clone(), id);
        self.classes.push(Class {
            name,
            fields: field_ids,
            methods: HashMap::new(),
            size: max_end,
        });
        id
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// A class by id.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index()]
    }

    /// Looks a class up by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.class_names.get(name).copied()
    }

    /// Looks up a field of `class` by name.
    pub fn field(&self, class: ClassId, name: &str) -> Option<FieldId> {
        self.classes[class.index()]
            .fields
            .iter()
            .copied()
            .find(|&f| self.fields[f.index()].name == name)
    }

    /// A field declaration by id.
    pub fn field_decl(&self, id: FieldId) -> &Field {
        &self.fields[id.index()]
    }

    /// Byte offset of a field.
    pub fn field_offset(&self, id: FieldId) -> u64 {
        self.fields[id.index()].offset
    }

    /// Total number of fields across all classes.
    pub fn num_fields(&self) -> usize {
        self.fields.len()
    }

    /// Adds a function and returns its id.
    ///
    /// # Panics
    /// Panics if a function with the same name exists.
    pub fn add_function(&mut self, func: Function) -> FunctionId {
        let name = func.name().to_string();
        assert!(
            !self.function_names.contains_key(&name),
            "duplicate function {name}"
        );
        let id = FunctionId::new(self.functions.len());
        self.function_names.insert(name, id);
        self.functions.push(func);
        id
    }

    /// Registers `func` as the implementation of virtual method `method` on
    /// `class`, marking it as an instance method.
    pub fn add_method(
        &mut self,
        class: ClassId,
        method: impl Into<String>,
        func: Function,
    ) -> FunctionId {
        let mut func = func;
        func.set_instance(true);
        let id = self.add_function(func);
        self.classes[class.index()]
            .methods
            .insert(method.into(), id);
        id
    }

    /// Number of functions.
    pub fn num_functions(&self) -> usize {
        self.functions.len()
    }

    /// A function by id.
    pub fn function(&self, id: FunctionId) -> &Function {
        &self.functions[id.index()]
    }

    /// A function by id, mutably.
    pub fn function_mut(&mut self, id: FunctionId) -> &mut Function {
        &mut self.functions[id.index()]
    }

    /// All functions in arena order.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// All function ids.
    pub fn function_ids(&self) -> impl Iterator<Item = FunctionId> + '_ {
        (0..self.functions.len()).map(FunctionId::new)
    }

    /// Looks a function up by name.
    pub fn function_by_name(&self, name: &str) -> Option<FunctionId> {
        self.function_names.get(name).copied()
    }

    /// Resolves a virtual `method` on dynamic class `class` (`None` also
    /// for a class the module does not have).
    pub fn resolve_virtual(&self, class: ClassId, method: &str) -> Option<FunctionId> {
        self.classes
            .get(class.index())?
            .methods
            .get(method)
            .copied()
    }

    /// Returns every implementation of `method` across all classes — used by
    /// the devirtualizer to detect monomorphic call sites.
    pub fn implementations_of(&self, method: &str) -> Vec<(ClassId, FunctionId)> {
        let mut out = Vec::new();
        for (i, c) in self.classes.iter().enumerate() {
            if let Some(&f) = c.methods.get(method) {
                out.push((ClassId::new(i), f));
            }
        }
        out
    }

    /// Total number of IR instructions across all functions.
    pub fn num_insts(&self) -> usize {
        self.functions.iter().map(Function::num_insts).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;

    #[test]
    fn field_offsets_are_sequential_after_header() {
        let mut m = Module::new("t");
        let c = m.add_class(
            "C",
            &[("a", Type::Int), ("b", Type::Float), ("c", Type::Ref)],
        );
        assert_eq!(m.field_offset(m.field(c, "a").unwrap()), 8);
        assert_eq!(m.field_offset(m.field(c, "b").unwrap()), 16);
        assert_eq!(m.field_offset(m.field(c, "c").unwrap()), 24);
        assert_eq!(m.class(c).size, 32);
    }

    #[test]
    fn big_offset_fields() {
        let mut m = Module::new("t");
        let c = m.add_class_with_offsets("Big", &[("far", Type::Int, 1 << 20)]);
        let f = m.field(c, "far").unwrap();
        assert_eq!(m.field_offset(f), 1 << 20);
        assert_eq!(m.class(c).size, (1 << 20) + 8);
    }

    #[test]
    fn virtual_resolution_and_monomorphism() {
        let mut m = Module::new("t");
        let c1 = m.add_class("A", &[]);
        let c2 = m.add_class("B", &[]);
        let mk = |name: &str| {
            let mut b = FuncBuilder::new(name, &[Type::Ref], Type::Int);
            let z = b.iconst(0);
            b.ret(Some(z));
            b.finish()
        };
        let f1 = m.add_method(c1, "get", mk("A_get"));
        let _f2 = m.add_method(c2, "get", mk("B_get"));
        let f3 = m.add_method(c1, "only", mk("A_only"));
        assert_eq!(m.resolve_virtual(c1, "get"), Some(f1));
        assert_eq!(m.implementations_of("get").len(), 2);
        assert_eq!(m.implementations_of("only"), vec![(c1, f3)]);
        assert!(m.function(f1).is_instance());
    }

    #[test]
    fn function_lookup_by_name() {
        let mut m = Module::new("t");
        let mut b = FuncBuilder::new("main", &[], Type::Int);
        let z = b.iconst(42);
        b.ret(Some(z));
        let id = m.add_function(b.finish());
        assert_eq!(m.function_by_name("main"), Some(id));
        assert_eq!(m.function_by_name("nope"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate class")]
    fn duplicate_class_panics() {
        let mut m = Module::new("t");
        m.add_class("C", &[]);
        m.add_class("C", &[]);
    }
}
