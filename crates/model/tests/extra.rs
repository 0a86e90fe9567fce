//! Additional model-level tests: indexes, bitsets, and edge cases that
//! cut across modules.

use chc_model::{AttrSpec, BitSet, Range, SchemaBuilder};

#[test]
fn declarers_index_is_complete_and_ordered() {
    let mut b = SchemaBuilder::new();
    let a = b.declare("A").unwrap();
    let c = b.declare("B").unwrap();
    let d = b.declare("C").unwrap();
    b.add_super(c, a).unwrap();
    b.add_super(d, c).unwrap();
    b.add_attr(a, "x", AttrSpec::plain(Range::int(1, 10).unwrap()))
        .unwrap();
    b.add_attr(d, "x", AttrSpec::plain(Range::int(2, 3).unwrap()))
        .unwrap();
    b.add_attr(c, "y", AttrSpec::plain(Range::Str)).unwrap();
    let s = b.build().unwrap();
    let x = s.sym("x").unwrap();
    let y = s.sym("y").unwrap();
    assert_eq!(s.declarers_of(x), &[a, d]);
    assert_eq!(s.declarers_of(y), &[c]);
    let z = s.sym("A").unwrap(); // interned but not an attribute
    assert!(s.declarers_of(z).is_empty());
}

#[test]
fn applicable_excusers_matches_the_naive_filter() {
    // Build a fan: one constraint excused by many classes; check the
    // bitset-intersection path agrees with a brute-force filter.
    let mut b = SchemaBuilder::new();
    let root = b.declare("Root").unwrap();
    let t0 = b.intern("t0");
    let t1 = b.intern("t1");
    b.add_attr(
        root,
        "p",
        AttrSpec::plain(Range::enumeration([t0]).unwrap()),
    )
    .unwrap();
    let p = b.intern("p");
    let mut excusers = Vec::new();
    for i in 0..40 {
        let e = b.declare(&format!("E{i}")).unwrap();
        b.add_super(e, root).unwrap();
        b.add_attr(
            e,
            "p",
            AttrSpec::plain(Range::enumeration([t1]).unwrap()).excusing(p, root),
        )
        .unwrap();
        excusers.push(e);
    }
    // A class under E3 and E7.
    let sub = b.declare("Sub").unwrap();
    b.add_super(sub, excusers[3]).unwrap();
    b.add_super(sub, excusers[7]).unwrap();
    let s = b.build().unwrap();
    let fast: Vec<_> = s
        .applicable_excusers(sub, root, p)
        .map(|e| e.excuser)
        .collect();
    let slow: Vec<_> = s
        .excusers_of(root, p)
        .iter()
        .filter(|e| s.is_subclass(sub, e.excuser))
        .map(|e| e.excuser)
        .collect();
    let mut fast_sorted = fast.clone();
    fast_sorted.sort();
    let mut slow_sorted = slow;
    slow_sorted.sort();
    assert_eq!(fast_sorted, slow_sorted);
    assert_eq!(fast_sorted.len(), 2);
}

#[test]
fn bitset_intersection_iter_agrees_with_membership() {
    let mut a = BitSet::new(300);
    let mut b = BitSet::new(300);
    for i in (0..300).step_by(3) {
        a.insert(i);
    }
    for i in (0..300).step_by(5) {
        b.insert(i);
    }
    let got: Vec<usize> = a.intersection_iter(&b).collect();
    let expect: Vec<usize> = (0..300).filter(|i| i % 15 == 0).collect();
    assert_eq!(got, expect);
}

#[test]
fn deep_hierarchy_closures_stay_consistent() {
    // 500-deep chain: ancestors/descendants must be exact complements.
    let mut b = SchemaBuilder::new();
    let mut prev = b.declare("C0").unwrap();
    let mut ids = vec![prev];
    for i in 1..500 {
        let c = b.declare(&format!("C{i}")).unwrap();
        b.add_super(c, prev).unwrap();
        prev = c;
        ids.push(c);
    }
    let s = b.build().unwrap();
    assert_eq!(s.ancestors_with_self(ids[499]).count(), 500);
    assert_eq!(s.descendants_with_self(ids[0]).count(), 500);
    assert!(s.is_subclass(ids[499], ids[0]));
    assert!(!s.is_subclass(ids[0], ids[499]));
    assert_eq!(s.ancestors_with_self(ids[250]).count(), 251);
}

#[test]
fn wide_multiple_inheritance_closure() {
    // One class with 64 direct parents.
    let mut b = SchemaBuilder::new();
    let parents: Vec<_> = (0..64)
        .map(|i| b.declare(&format!("P{i}")).unwrap())
        .collect();
    let child = b.declare("Child").unwrap();
    for &p in &parents {
        b.add_super(child, p).unwrap();
    }
    let s = b.build().unwrap();
    assert_eq!(s.ancestors_with_self(child).count(), 65);
    for &p in &parents {
        assert!(s.is_subclass(child, p));
        assert_eq!(s.descendants_with_self(p).count(), 2);
    }
}

#[test]
fn builder_from_schema_round_trips_ids_and_specs() {
    let mut b = SchemaBuilder::new();
    let a = b.declare("A").unwrap();
    let c = b.declare("B").unwrap();
    b.add_super(c, a).unwrap();
    let tok = b.intern("t");
    b.add_attr(a, "x", AttrSpec::plain(Range::enumeration([tok]).unwrap()))
        .unwrap();
    let x = b.intern("x");
    b.add_attr(
        c,
        "x",
        AttrSpec::plain(Range::enumeration([tok]).unwrap()).excusing(x, a),
    )
    .unwrap();
    let s1 = b.build().unwrap();
    let s2 = SchemaBuilder::from_schema(&s1).build().unwrap();
    assert_eq!(s1.num_classes(), s2.num_classes());
    for id in s1.class_ids() {
        assert_eq!(s1.class_name(id), s2.class_name(id));
        assert_eq!(s1.class(id).attrs, s2.class(id).attrs);
        assert_eq!(s1.supers(id), s2.supers(id));
    }
    assert_eq!(s1.excusers_of(a, x), s2.excusers_of(a, x));
}

#[test]
fn empty_schema_is_fine() {
    let s = SchemaBuilder::new().build().unwrap();
    assert_eq!(s.num_classes(), 0);
    assert_eq!(s.class_ids().count(), 0);
}
