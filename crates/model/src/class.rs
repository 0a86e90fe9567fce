//! Class definitions.

use std::fmt;

use crate::range::AttrSpec;
use crate::symbol::Sym;

/// A dense identifier for a class within one [`Schema`](crate::schema::Schema).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(u32);

impl ClassId {
    /// Constructs from a raw index. Only schema builders should mint these.
    #[inline]
    pub const fn from_raw(raw: u32) -> Self {
        ClassId(raw)
    }

    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ClassId({})", self.0)
    }
}

/// How a class came to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassKind {
    /// Declared by the designer.
    Declared,
    /// Synthesized by the core checker from an embedded excuse (§5.6) —
    /// e.g. the hospital class `H1` implied by `Tubercular_Patient`'s
    /// `treatedAt` refinement. Virtual classes have computed extents.
    Virtual,
}

/// One attribute declaration on a class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrDecl {
    /// The attribute name.
    pub name: Sym,
    /// Its range and excuse clauses.
    pub spec: AttrSpec,
}

/// A class: a name, its direct superclasses, and its locally declared
/// attributes. Inherited attributes are *not* stored here — inheritance is
/// computed by [`Schema`](crate::schema::Schema) queries, which is what
/// lets a superclass edit propagate to all subclasses (§3b).
#[derive(Debug, Clone)]
pub struct Class {
    /// The class name.
    pub name: Sym,
    /// Direct superclasses (is-a). Multiple inheritance is permitted; the
    /// hierarchy is a DAG, not necessarily a tree.
    pub supers: Vec<ClassId>,
    /// Locally declared attributes, sorted by name.
    pub attrs: Vec<AttrDecl>,
    /// Declared or synthesized.
    pub kind: ClassKind,
}

impl Class {
    /// The locally declared specification for `attr`, if any.
    pub fn attr(&self, attr: Sym) -> Option<&AttrDecl> {
        self.attrs
            .binary_search_by_key(&attr, |d| d.name)
            .ok()
            .map(|i| &self.attrs[i])
    }

    /// Whether this class was synthesized rather than declared.
    pub fn is_virtual(&self) -> bool {
        self.kind == ClassKind::Virtual
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::{AttrSpec, Range};
    use crate::symbol::Interner;

    #[test]
    fn attr_lookup_by_name() {
        let mut i = Interner::new();
        let name = i.intern("Person");
        let age = i.intern("age");
        let home = i.intern("home");
        let mut attrs = vec![
            AttrDecl {
                name: home,
                spec: AttrSpec::plain(Range::Str),
            },
            AttrDecl {
                name: age,
                spec: AttrSpec::plain(Range::int(1, 120).unwrap()),
            },
        ];
        attrs.sort_by_key(|d| d.name);
        let c = Class {
            name,
            supers: vec![],
            attrs,
            kind: ClassKind::Declared,
        };
        assert!(c.attr(age).is_some());
        assert!(c.attr(home).is_some());
        assert!(c.attr(i.intern("salary")).is_none());
        assert!(!c.is_virtual());
    }
}
