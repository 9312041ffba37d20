//! Tuples, repeating-group rows, and composite result tuples.
//!
//! §3.1: "A tuple of a service is a mapping that sends each attribute
//! `s.A` into a value of the domain of `A`. […] if `s.R` is a repeating
//! group, the value `t.R` is a set of tuples over the sub-attributes of
//! `s.R`." Query answers are *composite tuples* `t1 · … · tn` combining
//! one tuple from each service, ranked by the weighted sum of the
//! services' scores.

use std::fmt;
use std::sync::Arc;

use crate::attribute::{AttributeKind, AttributePath};
use crate::error::ModelError;
use crate::schema::ServiceSchema;
use crate::symbol::{AtomShape, Symbol};
use crate::value::Value;

/// A shared, immutable tuple handle. The zero-copy data plane passes these
/// between cache, join pipes, and executors: cloning one bumps a reference
/// count instead of deep-copying fields.
pub type SharedTuple = Arc<Tuple>;

/// One row of a repeating group: values aligned with the group's
/// sub-attribute definitions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroupTuple {
    /// Values, positionally aligned with [`crate::attribute::SubAttributeDef`]s.
    pub values: Vec<Value>,
}

impl GroupTuple {
    /// Builds a group row from values.
    pub fn new(values: Vec<Value>) -> Self {
        GroupTuple { values }
    }
}

/// Storage slot for one top-level attribute of a tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldSlot {
    /// Single value of an atomic attribute.
    Atomic(Value),
    /// Set of rows of a repeating group.
    Group(Vec<GroupTuple>),
}

/// A tuple produced by one service call, positionally aligned with a
/// [`ServiceSchema`].
///
/// `score` is the value of the service's scoring function in `[0, 1]`
/// (constant for unranked/exact services, §3.1); `source_rank` is the
/// 0-based position of the tuple in the service's ranked output, which
/// also supports the chapter's footnote on *opaque* rankings (position is
/// translated into a score).
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    /// One slot per schema attribute, in schema order.
    pub fields: Vec<FieldSlot>,
    /// Score in `[0, 1]` assigned by the producing service.
    pub score: f64,
    /// 0-based position in the producing service's result list.
    pub source_rank: usize,
}

impl Tuple {
    /// Starts building a tuple for `schema`; unset atomic attributes
    /// default to `Null` and unset groups to empty row sets.
    pub fn builder(schema: &ServiceSchema) -> TupleBuilder<'_> {
        let fields = schema
            .attributes
            .iter()
            .map(|a| match a.kind {
                AttributeKind::Atomic(_) => FieldSlot::Atomic(Value::Null),
                AttributeKind::Group(_) => FieldSlot::Group(Vec::new()),
            })
            .collect();
        TupleBuilder {
            schema,
            tuple: Tuple {
                fields,
                score: 1.0,
                source_rank: 0,
            },
            error: None,
        }
    }

    /// The value of an atomic attribute by index (panics on group slots
    /// only in debug builds; returns `Null` in release).
    pub fn atomic_at(&self, idx: usize) -> &Value {
        match self.fields.get(idx) {
            Some(FieldSlot::Atomic(v)) => v,
            _ => {
                debug_assert!(false, "atomic_at({idx}) addressed a non-atomic slot");
                &Value::Null
            }
        }
    }

    /// The rows of a repeating group by index.
    pub fn group_at(&self, idx: usize) -> &[GroupTuple] {
        match self.fields.get(idx) {
            Some(FieldSlot::Group(rows)) => rows,
            _ => {
                debug_assert!(false, "group_at({idx}) addressed a non-group slot");
                &[]
            }
        }
    }

    /// Resolves a path against a schema and returns the set of values it
    /// denotes: a singleton for atomic attributes, one value per group
    /// row for sub-attribute paths.
    ///
    /// The multi-valued case is what gives the query language its
    /// existential repeating-group semantics: a predicate over `R.A`
    /// holds if *some* row of `R` satisfies it (together with the other
    /// predicates over `R`, handled by the semantics module in
    /// `seco-query`).
    pub fn values_at(
        &self,
        schema: &ServiceSchema,
        path: &AttributePath,
    ) -> Result<Vec<Value>, ModelError> {
        let (idx, sidx) = schema.resolve(path)?;
        Ok(match sidx {
            None => vec![self.atomic_at(idx).clone()],
            Some(s) => self
                .group_at(idx)
                .iter()
                .map(|row| row.values.get(s).cloned().unwrap_or(Value::Null))
                .collect(),
        })
    }

    /// Single-valued view of a path: the atomic value, or the value from
    /// the first group row (used when piping join-attribute values whose
    /// group has exactly one row).
    pub fn first_value_at(
        &self,
        schema: &ServiceSchema,
        path: &AttributePath,
    ) -> Result<Value, ModelError> {
        let (idx, sidx) = schema.resolve(path)?;
        Ok(self.first_value(idx, sidx).clone())
    }

    /// [`first_value_at`](Self::first_value_at) for a path already
    /// resolved ([`ServiceSchema::resolve`]) to its field slot and group
    /// sub-slot: `Null` when the group has no row.
    pub fn first_value(&self, idx: usize, sidx: Option<usize>) -> &Value {
        match sidx {
            None => self.atomic_at(idx),
            Some(s) => self
                .group_at(idx)
                .first()
                .and_then(|row| row.values.get(s))
                .unwrap_or(&Value::Null),
        }
    }
}

/// Builder returned by [`Tuple::builder`]; validates against the schema
/// at [`TupleBuilder::build`] so call sites get one error path.
pub struct TupleBuilder<'a> {
    schema: &'a ServiceSchema,
    tuple: Tuple,
    error: Option<ModelError>,
}

impl<'a> TupleBuilder<'a> {
    /// Sets an atomic attribute by name.
    pub fn set(mut self, attr: &str, value: Value) -> Self {
        if self.error.is_some() {
            return self;
        }
        match self.schema.attr_index(attr) {
            Some(idx) if !self.schema.attributes[idx].is_group() => {
                self.tuple.fields[idx] = FieldSlot::Atomic(value);
            }
            Some(_) => {
                self.error = Some(ModelError::KindMismatch {
                    attribute: attr.to_owned(),
                    expected: "atomic attribute",
                })
            }
            None => {
                self.error = Some(ModelError::UnknownAttribute {
                    service: self.schema.name.clone(),
                    attribute: attr.to_owned(),
                })
            }
        }
        self
    }

    /// Appends a row to a repeating group by name.
    pub fn push_group_row(mut self, group: &str, values: Vec<Value>) -> Self {
        if self.error.is_some() {
            return self;
        }
        match self.schema.attr_index(group) {
            Some(idx) if self.schema.attributes[idx].is_group() => {
                if let FieldSlot::Group(rows) = &mut self.tuple.fields[idx] {
                    rows.push(GroupTuple::new(values));
                }
            }
            Some(_) => {
                self.error = Some(ModelError::KindMismatch {
                    attribute: group.to_owned(),
                    expected: "repeating group",
                })
            }
            None => {
                self.error = Some(ModelError::UnknownAttribute {
                    service: self.schema.name.clone(),
                    attribute: group.to_owned(),
                })
            }
        }
        self
    }

    /// Sets the service score (clamped into `[0, 1]`).
    pub fn score(mut self, score: f64) -> Self {
        self.tuple.score = score.clamp(0.0, 1.0);
        self
    }

    /// Sets the source rank (position in the service's result list).
    pub fn source_rank(mut self, rank: usize) -> Self {
        self.tuple.source_rank = rank;
        self
    }

    /// Validates against the schema and returns the tuple.
    pub fn build(self) -> Result<Tuple, ModelError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.schema.validate(&self.tuple)?;
        Ok(self.tuple)
    }
}

/// A composite tuple `t1 · … · tn`: one component tuple per query atom,
/// with the component scores retained so the global ranking function
/// (weighted sum, §3.1) can be applied and re-weighted dynamically.
///
/// Composites are *thin*: each component is a [`SharedTuple`] handle into
/// the chunk that produced it, and the atom names are one interned
/// [`AtomShape`] shared by every composite of the same plan node.
/// Joining, merging, and extending a composite copies handles, never
/// rows, into **one** exactly-sized block — a built composite is one
/// heap allocation; field data is materialized only when the final
/// output is rendered.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositeTuple {
    /// Names of the contributing query atoms (service aliases), aligned
    /// with `components`.
    pub atoms: AtomShape,
    /// Shared handles to the component tuples, in atom order.
    pub components: Box<[SharedTuple]>,
}

impl CompositeTuple {
    /// The composite of no atoms: the user's single input tuple (§3.2).
    pub fn empty() -> Self {
        CompositeTuple {
            atoms: AtomShape::EMPTY,
            components: Box::default(),
        }
    }

    /// A composite over `atoms` with one component each, in order.
    pub fn new(atoms: &[Symbol], components: Vec<SharedTuple>) -> Self {
        assert_eq!(atoms.len(), components.len(), "one component per atom");
        CompositeTuple {
            atoms: AtomShape::intern(atoms),
            components: components.into_boxed_slice(),
        }
    }

    /// A composite with a single component.
    pub fn single(atom: impl Into<Symbol>, tuple: impl Into<SharedTuple>) -> Self {
        CompositeTuple {
            atoms: AtomShape::EMPTY.concat(&[atom.into()]),
            components: Box::new([tuple.into()]),
        }
    }

    /// `self`'s handles followed by `tail`'s, in a block of exactly
    /// `self.arity() + extra` slots.
    fn block_with<'t>(
        &self,
        extra: usize,
        tail: impl Iterator<Item = &'t SharedTuple>,
    ) -> Box<[SharedTuple]> {
        let mut block = Vec::with_capacity(self.components.len() + extra);
        block.extend_from_slice(&self.components);
        block.extend(tail.cloned());
        block.into_boxed_slice()
    }

    /// Concatenates two composites: `self · other`.
    pub fn join(&self, other: &CompositeTuple) -> Self {
        CompositeTuple {
            atoms: self.atoms.concat(&other.atoms),
            components: self.block_with(other.arity(), other.components.iter()),
        }
    }

    /// Merges two composites that may share atoms (branches with common
    /// ancestry, e.g. the Fig. 2 diamond where both the Flight and the
    /// Hotel branch carry the Conference and Weather components).
    ///
    /// Returns `None` when a shared atom's components differ — such a
    /// pair stems from two different upstream tuples and must not join.
    /// Otherwise the result carries each atom once. Shared components are
    /// usually pointer-identical handles into the same chunk, so the
    /// equality check short-circuits on `Arc::ptr_eq` before comparing
    /// fields.
    pub fn merge(&self, other: &CompositeTuple) -> Option<Self> {
        let mine_of = |atom: &Symbol| self.atoms.iter().position(|a| a == atom);
        let mut fresh = 0;
        for (atom, tuple) in other.atoms.iter().zip(other.components.iter()) {
            match mine_of(atom) {
                Some(at) => {
                    let mine = &self.components[at];
                    if !Arc::ptr_eq(mine, tuple) && **mine != **tuple {
                        return None;
                    }
                }
                None => fresh += 1,
            }
        }
        let tail = other
            .atoms
            .iter()
            .zip(other.components.iter())
            .filter(|(atom, _)| mine_of(atom).is_none())
            .map(|(_, tuple)| tuple);
        Some(CompositeTuple {
            atoms: self.atoms.union(&other.atoms),
            components: self.block_with(fresh, tail),
        })
    }

    /// Extends the composite with one more component.
    pub fn extend_with(&self, atom: impl Into<Symbol>, tuple: impl Into<SharedTuple>) -> Self {
        let tuple = tuple.into();
        CompositeTuple {
            atoms: self.atoms.concat(&[atom.into()]),
            components: self.block_with(1, std::iter::once(&tuple)),
        }
    }

    /// Shared handle to the component tuple for a given atom alias.
    pub fn component(&self, atom: &str) -> Option<&SharedTuple> {
        self.atoms
            .iter()
            .position(|a| *a == atom)
            .map(|i| &self.components[i])
    }

    /// Atom names as plain strings (test and display convenience).
    pub fn atom_names(&self) -> Vec<&'static str> {
        self.atoms.iter().map(|a| a.as_str()).collect()
    }

    /// Global score under a weight vector aligned with `atoms`
    /// (`w1·S1 + … + wn·Sn`, §3.1). Missing weights default to 0, which
    /// is also the chapter's convention for unranked services.
    pub fn global_score(&self, weights: &[f64]) -> f64 {
        self.components
            .iter()
            .enumerate()
            .map(|(i, t)| weights.get(i).copied().unwrap_or(0.0) * t.score)
            .sum()
    }

    /// Product of component scores — the objective of *extraction
    /// optimality* (§4.1: results in decreasing order of `ρX · ρY`).
    pub fn score_product(&self) -> f64 {
        self.components.iter().map(|t| t.score).product()
    }

    /// Number of components.
    pub fn arity(&self) -> usize {
        self.components.len()
    }

    /// Materializes the combination into owned rows, one `(atom, tuple)`
    /// pair per component.
    ///
    /// This is the *only* deep copy in a composite's life: everything
    /// upstream (joins, merges, fan-out, buffering) moves handles. Call
    /// it when the ranked combination leaves the engine — rendering,
    /// serialization, or handing rows to a caller that outlives the
    /// source chunks.
    pub fn materialize(&self) -> Vec<(&'static str, Tuple)> {
        self.atoms
            .iter()
            .zip(self.components.iter())
            .map(|(a, t)| (a.as_str(), (**t).clone()))
            .collect()
    }
}

impl CompositeTuple {
    /// Writes the rendered combination, `⟨A#0(s=0.500) · B#12(s=0.250)⟩`:
    /// per component the atom, its source rank and its score to three
    /// decimals. This is the one definition of a row's text — `Display`,
    /// the server's session identity and every row renderer go through
    /// it — and it is generic so a `String` sink pays no formatter.
    pub fn write_to<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        out.write_str("⟨")?;
        for (i, (a, t)) in self.atoms.iter().zip(self.components.iter()).enumerate() {
            if i > 0 {
                out.write_str(" · ")?;
            }
            out.write_str(a.as_str())?;
            out.write_str("#")?;
            write_uint(out, t.source_rank as u64)?;
            out.write_str("(s=")?;
            write_fixed3(out, t.score)?;
            out.write_str(")")?;
        }
        out.write_str("⟩")
    }
}

impl fmt::Display for CompositeTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

/// Writes `n` in decimal, as `{}` does.
fn write_uint<W: fmt::Write>(out: &mut W, mut n: u64) -> fmt::Result {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.write_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"))
}

/// Writes `v` to three decimals, byte for byte what `{:.3}` writes,
/// without the general float formatter.
///
/// A finite `f64` is `m · 2^e` exactly, so `v · 1000` is the integer
/// `1000 m` shifted right by `-e` bits: the kept bits are the
/// thousandths, the dropped bits decide the rounding (half to even on
/// the exact value, like `{:.3}`). Everything outside `0 ≤ v < 10^6` —
/// negatives including `-0.0`, large values, NaN, ±∞ — goes to `{:.3}`
/// itself.
fn write_fixed3<W: fmt::Write>(out: &mut W, v: f64) -> fmt::Result {
    let bits = v.to_bits();
    // Non-negative floats order like their bit patterns; a set sign bit
    // or an all-ones exponent compares above every one of them.
    if bits >= 1e6f64.to_bits() {
        return write!(out, "{v:.3}");
    }
    let exponent = (bits >> 52) as i32;
    let fraction = bits & ((1 << 52) - 1);
    let (mantissa, shift) = match exponent {
        0 => (fraction, 1074),
        _ => (fraction | 1 << 52, 1075 - exponent),
    };
    // v < 2^20 puts the shift at 33 or more; 1000 m < 2^63, so from 64
    // bits on the value is under half a thousandth.
    let scaled = mantissa * 1000;
    let mut thousandths = 0;
    if shift < 64 {
        thousandths = scaled >> shift;
        let dropped = scaled & ((1 << shift) - 1);
        let half = 1 << (shift - 1);
        if dropped > half || (dropped == half && thousandths & 1 == 1) {
            thousandths += 1;
        }
    }
    write_uint(out, thousandths / 1000)?;
    let digit = |place: u64| b'0' + (thousandths / place % 10) as u8;
    let decimals = [b'.', digit(100), digit(10), digit(1)];
    out.write_str(std::str::from_utf8(&decimals).expect("ASCII digits"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::{Adornment, AttributeDef, DataType, SubAttributeDef};

    fn schema() -> ServiceSchema {
        ServiceSchema::new(
            "S",
            vec![
                AttributeDef::atomic("A", DataType::Int, Adornment::Output),
                AttributeDef::group(
                    "R",
                    vec![
                        SubAttributeDef::new("X", DataType::Int, Adornment::Output),
                        SubAttributeDef::new("Y", DataType::Text, Adornment::Output),
                    ],
                ),
            ],
        )
        .unwrap()
    }

    fn sample() -> Tuple {
        Tuple::builder(&schema())
            .set("A", Value::Int(7))
            .push_group_row("R", vec![Value::Int(1), Value::text("x")])
            .push_group_row("R", vec![Value::Int(2), Value::text("y")])
            .score(0.5)
            .source_rank(3)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_sets_fields_and_metadata() {
        let t = sample();
        assert_eq!(t.atomic_at(0), &Value::Int(7));
        assert_eq!(t.group_at(1).len(), 2);
        assert_eq!(t.score, 0.5);
        assert_eq!(t.source_rank, 3);
    }

    #[test]
    fn builder_rejects_unknown_and_mismatched_names() {
        assert!(Tuple::builder(&schema())
            .set("Nope", Value::Int(1))
            .build()
            .is_err());
        assert!(Tuple::builder(&schema())
            .set("R", Value::Int(1))
            .build()
            .is_err());
        assert!(Tuple::builder(&schema())
            .push_group_row("A", vec![Value::Int(1)])
            .build()
            .is_err());
    }

    #[test]
    fn score_is_clamped() {
        let t = Tuple::builder(&schema()).score(7.0).build().unwrap();
        assert_eq!(t.score, 1.0);
        let t = Tuple::builder(&schema()).score(-1.0).build().unwrap();
        assert_eq!(t.score, 0.0);
    }

    #[test]
    fn values_at_atomic_and_group_paths() {
        let t = sample();
        let s = schema();
        assert_eq!(
            t.values_at(&s, &AttributePath::atomic("A")).unwrap(),
            vec![Value::Int(7)]
        );
        assert_eq!(
            t.values_at(&s, &AttributePath::sub("R", "X")).unwrap(),
            vec![Value::Int(1), Value::Int(2)]
        );
        assert_eq!(
            t.first_value_at(&s, &AttributePath::sub("R", "Y")).unwrap(),
            Value::text("x")
        );
    }

    #[test]
    fn composite_join_and_scores() {
        let t1 = Tuple::builder(&schema()).score(0.8).build().unwrap();
        let t2 = Tuple::builder(&schema()).score(0.5).build().unwrap();
        let c1 = CompositeTuple::single("M", t1);
        let c2 = CompositeTuple::single("T", t2);
        let j = c1.join(&c2);
        assert_eq!(j.arity(), 2);
        assert_eq!(j.atom_names(), ["M", "T"]);
        assert!((j.global_score(&[0.5, 0.5]) - 0.65).abs() < 1e-12);
        assert!((j.score_product() - 0.4).abs() < 1e-12);
        assert!(j.component("T").is_some());
        assert!(j.component("Z").is_none());
    }

    #[test]
    fn composite_merge_respects_shared_atoms() {
        let t1 = Tuple::builder(&schema())
            .set("A", Value::Int(1))
            .score(0.9)
            .build()
            .unwrap();
        let t2 = Tuple::builder(&schema())
            .set("A", Value::Int(2))
            .score(0.8)
            .build()
            .unwrap();
        let t3 = Tuple::builder(&schema())
            .set("A", Value::Int(3))
            .score(0.7)
            .build()
            .unwrap();
        // Branch 1: C · F, branch 2: C · H with the SAME C.
        let b1 = CompositeTuple::single("C", t1.clone()).extend_with("F", t2.clone());
        let b2 = CompositeTuple::single("C", t1.clone()).extend_with("H", t3.clone());
        let merged = b1.merge(&b2).expect("same shared component merges");
        assert_eq!(merged.arity(), 3);
        assert_eq!(merged.atom_names(), ["C", "F", "H"]);
        // Different C components must refuse to merge.
        let b3 = CompositeTuple::single("C", t2).extend_with("H", t3);
        assert!(b1.merge(&b3).is_none());
        // Disjoint composites merge like join.
        let d1 = CompositeTuple::single("X", t1.clone());
        let d2 = CompositeTuple::single("Y", t1);
        assert_eq!(d1.merge(&d2).unwrap().arity(), 2);
    }

    #[test]
    fn composite_components_are_shared_not_copied() {
        let t: SharedTuple = Arc::new(sample());
        let b1 = CompositeTuple::single("C", t.clone()).extend_with("F", t.clone());
        let b2 = CompositeTuple::single("C", t.clone()).extend_with("H", t.clone());
        // Joining composites clones handles, not rows: every component of
        // the merge points at the one underlying allocation.
        let merged = b1.merge(&b2).unwrap();
        assert_eq!(merged.arity(), 3);
        for c in merged.components.iter() {
            assert!(Arc::ptr_eq(c, &t));
        }
        // 1 origin + 2 in b1 + 2 in b2 + 3 in merged.
        assert_eq!(Arc::strong_count(&t), 8);
        // Materialization is the one deep copy: owned rows, detached
        // from the shared allocation.
        let rows = merged.materialize();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].0, "C");
        assert_eq!(rows[0].1, *t);
        assert_eq!(Arc::strong_count(&t), 8, "materialize takes no handle");
    }

    #[test]
    fn composite_extend_with() {
        let t = Tuple::builder(&schema()).score(1.0).build().unwrap();
        let c = CompositeTuple::single("A", t.clone()).extend_with("B", t);
        assert_eq!(c.arity(), 2);
        // Missing weights default to zero.
        assert_eq!(c.global_score(&[1.0]), 1.0);
    }

    #[test]
    fn composite_display_is_compact() {
        let t = Tuple::builder(&schema())
            .score(0.25)
            .source_rank(2)
            .build()
            .unwrap();
        let c = CompositeTuple::single("M", t);
        assert_eq!(c.to_string(), "⟨M#2(s=0.250)⟩");
    }

    #[test]
    fn composite_display_pins_a_multibyte_row() {
        // Raw tuples: the builder would clamp the scores.
        let part = |score, source_rank| Tuple {
            fields: Vec::new(),
            score,
            source_rank,
        };
        let c = CompositeTuple::single("A", part(0.5, 0))
            .extend_with("B\"é", part(0.0625, 12))
            .extend_with("⟨C⟩", part(0.9995, 1234567))
            .extend_with("D", part(-0.0, usize::MAX));
        let expect =
            "⟨A#0(s=0.500) · B\"é#12(s=0.062) · ⟨C⟩#1234567(s=1.000) · D#18446744073709551615(s=-0.000)⟩";
        assert_eq!(c.to_string(), expect);
        let mut direct = String::new();
        c.write_to(&mut direct).unwrap();
        assert_eq!(direct, expect, "a String sink gets the same bytes");
    }

    fn fixed3(v: f64) -> String {
        let mut out = String::new();
        write_fixed3(&mut out, v).unwrap();
        out
    }

    #[test]
    fn fixed3_rounds_ties_to_even_on_the_exact_value() {
        for (v, expect) in [
            (0.0, "0.000"),
            // Exact in binary, so real ties: 62.5 and 187.5 thousandths.
            (0.0625, "0.062"),
            (0.1875, "0.188"),
            // Not ties: the nearest double lies just above n.5 thousandths.
            (0.0005, "0.001"),
            (0.0025, "0.003"),
            (0.9995, "1.000"),
            (1.0, "1.000"),
            (999999.9995, "1000000.000"),
            (f64::MIN_POSITIVE, "0.000"),
            (5e-324, "0.000"),
        ] {
            assert_eq!(fixed3(v), expect, "{v:e}");
            assert_eq!(fixed3(v), format!("{v:.3}"), "{v:e}");
        }
    }

    /// Every output of the writer is the output of `{:.3}`.
    #[test]
    fn fixed3_equals_the_std_formatter() {
        let mut checked = 0u32;
        let mut check = |v: f64| {
            assert_eq!(fixed3(v), format!("{v:.3}"), "{v:e} ({:#x})", v.to_bits());
            checked += 1;
        };
        for v in [
            0.0,
            -0.0,
            -0.0004,
            -0.0005,
            -1.5,
            1.0,
            999999.9995,
            999999.9994999999,
            1e6,
            1e6 - 1e-10,
            1e15,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            check(v);
        }
        // Exact ties k/16 and (n + 0.5)/1000 as the nearest double, and
        // the doubles on either side of each.
        let around = |v: f64| {
            [
                f64::from_bits(v.to_bits() - 1),
                v,
                f64::from_bits(v.to_bits() + 1),
            ]
        };
        for k in 1..16_000u32 {
            around(f64::from(k) / 16.0).into_iter().for_each(&mut check);
        }
        for n in 0..100_000u32 {
            around((f64::from(n) + 0.5) / 1000.0)
                .into_iter()
                .for_each(&mut check);
        }
        use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5ec0);
        for _ in 0..600_000 {
            // Scores, uniform in [0, 1).
            check(rng.gen_range(0.0..1.0));
        }
        for _ in 0..200_000 {
            // Any bit pattern: every exponent, both signs, NaNs.
            check(f64::from_bits(rng.next_u64()));
            // The fast range across its magnitudes, subnormals included.
            let magnitude = rng.gen_range(0..1e6f64.to_bits() >> 52) << 52;
            check(f64::from_bits(magnitude | rng.next_u64() >> 12));
        }
        assert!(checked >= 1_000_000, "{checked} values");
    }
}
