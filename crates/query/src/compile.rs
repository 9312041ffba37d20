//! Compile-once predicate evaluation for the join hot path.
//!
//! The interpreted evaluator in [`crate::predicate`] re-resolves every
//! `QualifiedPath` through the schema map, allocates `String` group keys,
//! and builds a fresh `BTreeMap` assignment per candidate pair. A join
//! stage evaluates the same predicate set once per candidate — up to
//! `nX × nY` times per tile — so this module compiles the set once (per
//! plan for the pipe stages, per join for a tile join): every path
//! becomes a direct `(component, field, sub)` accessor, repeating groups
//! become pre-sorted slots, and the row odometer runs over caller-owned
//! scratch buffers without touching the heap.
//!
//! The compiled evaluator is a *mirror* of
//! [`crate::predicate::satisfies_available`], not a rewrite: the
//! active-predicate filter, the `(atom, group)`-sorted group collection,
//! the odometer advance order, and the in-order short-circuit evaluation
//! reproduce the interpreter decision-for-decision and error-for-error,
//! so swapping it in cannot change results. [`CompiledPredicates::compile`]
//! rejects a set it cannot pre-resolve (an atom without a schema, a path
//! its schema does not have) with the error the interpreter raises on
//! meeting that predicate: callers compile before they evaluate
//! anything, so a malformed set fails before any tuple is fetched.
//!
//! Compilation additionally classifies predicates: conjuncts of the form
//! `X.a = Y.b` over *atomic* attributes of *distinct* atoms with
//! compatible types are surfaced as [`EquiCandidate`]s, which the join
//! layer uses to build hash indexes (see `seco-join`). Such a predicate
//! is independent of any group-row assignment, so a key mismatch falsifies
//! the conjunction under every mapping — skipping non-matching pairs is
//! exact. Predicates with incompatible operand types are *not* surfaced:
//! the evaluator raises `IncomparableValues` on them, and an index must
//! not skip the pairs that would raise it.

use seco_model::value::like_match;
use seco_model::{BitMask, ColumnRef, Comparator, CompositeTuple, DataType, Symbol, Value};

use crate::ast::QualifiedPath;
use crate::error::QueryError;
use crate::predicate::{ResolvedPredicate, SchemaMap};

/// A pre-resolved reference to one side of a predicate: which atom, which
/// field slot, and (for grouped paths) which sub-attribute and group slot.
#[derive(Debug, Clone, Copy)]
struct Accessor {
    /// Index into [`CompiledPredicates::atoms`].
    atom_idx: usize,
    /// Field slot index in the atom's tuple.
    field: usize,
    /// Sub-attribute index within a group row, when the path is grouped.
    sub: Option<usize>,
    /// Index into [`CompiledPredicates::groups`]; only valid when `sub`
    /// is `Some`.
    group_slot: usize,
    /// Attribute name, kept for error messages.
    attr: Symbol,
}

#[derive(Debug, Clone)]
enum CompiledPred {
    Selection {
        left: Accessor,
        op: Comparator,
        value: Value,
    },
    Join {
        left: Accessor,
        op: Comparator,
        right: Accessor,
    },
}

/// One repeating group referenced by the predicate set.
#[derive(Debug, Clone, Copy)]
struct GroupSlot {
    /// Index into [`CompiledPredicates::atoms`].
    atom_idx: usize,
    /// Field slot of the group in the atom's tuple.
    field: usize,
}

/// An equality conjunct `left_atom.field = right_atom.field` over atomic
/// attributes of two distinct atoms: the raw material for hash-join keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EquiCandidate {
    /// Alias of the left atom.
    pub left_atom: Symbol,
    /// Atomic field slot on the left tuple.
    pub left_field: usize,
    /// Alias of the right atom.
    pub right_atom: Symbol,
    /// Atomic field slot on the right tuple.
    pub right_field: usize,
}

/// A predicate set compiled against a schema map: direct accessors, slot
/// numbers for every referenced repeating group, and the extracted
/// equi-join candidates.
#[derive(Debug, Clone)]
pub struct CompiledPredicates {
    /// Distinct atom aliases referenced by the predicates.
    atoms: Vec<Symbol>,
    /// Schema (service) name per atom, for error messages.
    schema_names: Vec<String>,
    preds: Vec<CompiledPred>,
    /// Per predicate: statically total per [`cmp_is_total`] (can never
    /// raise a comparison error on schema-conforming values). Batch
    /// kernels only cover total predicates.
    totals: Vec<bool>,
    /// Referenced repeating groups, sorted by `(alias, group name)` — the
    /// same order the interpreter's `BTreeMap` iterates in.
    groups: Vec<GroupSlot>,
    equi: Vec<EquiCandidate>,
}

/// Reusable buffers for [`CompiledPredicates::eval`]. Owned by the caller
/// so a join stage performs zero allocations per candidate.
#[derive(Debug, Default)]
pub struct EvalScratch {
    /// Per compiled atom: its position in the composite, or `usize::MAX`.
    comp_idx: Vec<usize>,
    /// Indices of predicates whose atoms are all present.
    active: Vec<usize>,
    /// Per group slot: referenced by an active predicate this call?
    group_used: Vec<bool>,
    /// Per group slot: row count in the current composite.
    counts: Vec<usize>,
    /// Per group slot: the row selected by the current odometer state.
    rows: Vec<usize>,
    /// Referenced group slots in slot (= sorted) order; the odometer
    /// advances `order[0]` fastest, exactly like the interpreter.
    order: Vec<usize>,
}

fn types_compatible(a: DataType, b: DataType) -> bool {
    let numeric = |t| matches!(t, DataType::Int | DataType::Float);
    a == b || (numeric(a) && numeric(b))
}

/// The declared type of a constant operand, `None` for `Null` (which
/// never raises a comparison error: `eval` short-circuits on it).
fn const_type(v: &Value) -> Option<DataType> {
    match v {
        Value::Null => None,
        Value::Bool(_) => Some(DataType::Bool),
        Value::Int(_) => Some(DataType::Int),
        Value::Float(_) => Some(DataType::Float),
        Value::Text(_) => Some(DataType::Text),
        Value::Date(_) => Some(DataType::Date),
    }
}

/// True when `op` over operands of these types can never return an
/// error for schema-conforming values. `Like` demands text on both
/// sides; the other comparators accept identical or numeric-promotable
/// pairs. `None` (a `Null` constant) is always safe.
fn cmp_is_total(op: Comparator, left: DataType, right: Option<DataType>) -> bool {
    match right {
        None => true,
        Some(r) => {
            if op == Comparator::Like {
                left == DataType::Text && r == DataType::Text
            } else {
                types_compatible(left, r)
            }
        }
    }
}

/// Intermediate per-path resolution used during compilation.
struct ResolvedPath {
    atom_idx: usize,
    alias: Symbol,
    field: usize,
    sub: Option<usize>,
    attr: Symbol,
    dtype: DataType,
}

impl CompiledPredicates {
    /// Compiles `predicates` against `schemas`, or rejects the first
    /// path (in predicate order, left side first) that does not resolve:
    /// [`QueryError::UnknownAtom`] for an atom without a schema, the
    /// schema's model error for an attribute it does not have.
    pub fn compile(
        predicates: &[ResolvedPredicate],
        schemas: &SchemaMap<'_>,
    ) -> Result<Self, QueryError> {
        let mut atoms: Vec<Symbol> = Vec::new();
        let mut schema_names: Vec<String> = Vec::new();
        // (alias, group name) -> (atom_idx, field); BTreeMap iteration
        // gives the interpreter's sorted group order.
        let mut group_keys: std::collections::BTreeMap<(Symbol, Symbol), GroupSlot> =
            std::collections::BTreeMap::new();

        let mut resolve_path = |qp: &QualifiedPath| -> Result<ResolvedPath, QueryError> {
            let schema = schemas
                .get(&qp.atom)
                .ok_or_else(|| QueryError::UnknownAtom(qp.atom.clone()))?;
            let (field, sub) = schema.resolve(&qp.path)?;
            let dtype = schema.type_of(&qp.path)?;
            let alias = Symbol::intern(&qp.atom);
            let atom_idx = match atoms.iter().position(|a| *a == alias) {
                Some(i) => i,
                None => {
                    atoms.push(alias);
                    schema_names.push(schema.name.clone());
                    atoms.len() - 1
                }
            };
            if sub.is_some() {
                group_keys
                    .entry((alias, qp.path.attr))
                    .or_insert(GroupSlot { atom_idx, field });
            }
            Ok(ResolvedPath {
                atom_idx,
                alias,
                field,
                sub,
                attr: qp.path.attr,
                dtype,
            })
        };

        // First pass: resolve every path (collecting atoms and groups).
        enum Partial {
            Selection(ResolvedPath, Comparator, Value),
            Join(ResolvedPath, Comparator, ResolvedPath),
        }
        let mut partial = Vec::with_capacity(predicates.len());
        for p in predicates {
            match p {
                ResolvedPredicate::Selection { left, op, value } => {
                    partial.push(Partial::Selection(resolve_path(left)?, *op, value.clone()));
                }
                ResolvedPredicate::Join(j) => {
                    partial.push(Partial::Join(
                        resolve_path(&j.left)?,
                        j.op,
                        resolve_path(&j.right)?,
                    ));
                }
            }
        }

        // Assign group slots in sorted-key order.
        let groups: Vec<GroupSlot> = group_keys.values().copied().collect();
        let slot_of = |alias: Symbol, attr: Symbol| -> usize {
            group_keys
                .keys()
                .position(|k| *k == (alias, attr))
                .unwrap_or(usize::MAX)
        };
        let accessor = |rp: &ResolvedPath| -> Accessor {
            Accessor {
                atom_idx: rp.atom_idx,
                field: rp.field,
                sub: rp.sub,
                group_slot: match rp.sub {
                    Some(_) => slot_of(rp.alias, rp.attr),
                    None => usize::MAX,
                },
                attr: rp.attr,
            }
        };

        // A skipped pair must not hide an error the interpreter would
        // have raised from *any* predicate in the set, so equi keys are
        // only extracted when every predicate is statically total.
        let mut preds = Vec::with_capacity(partial.len());
        let mut totals = Vec::with_capacity(partial.len());
        let mut equi = Vec::new();
        for p in &partial {
            match p {
                Partial::Selection(left, op, value) => {
                    totals.push(cmp_is_total(*op, left.dtype, const_type(value)));
                    preds.push(CompiledPred::Selection {
                        left: accessor(left),
                        op: *op,
                        value: value.clone(),
                    });
                }
                Partial::Join(left, op, right) => {
                    totals.push(cmp_is_total(*op, left.dtype, Some(right.dtype)));
                    if *op == Comparator::Eq
                        && left.sub.is_none()
                        && right.sub.is_none()
                        && left.alias != right.alias
                        && types_compatible(left.dtype, right.dtype)
                    {
                        equi.push(EquiCandidate {
                            left_atom: left.alias,
                            left_field: left.field,
                            right_atom: right.alias,
                            right_field: right.field,
                        });
                    }
                    preds.push(CompiledPred::Join {
                        left: accessor(left),
                        op: *op,
                        right: accessor(right),
                    });
                }
            }
        }

        let all_total = totals.iter().all(|t| *t);
        if !all_total {
            equi.clear();
        }
        Ok(CompiledPredicates {
            atoms,
            schema_names,
            preds,
            totals,
            groups,
            equi,
        })
    }

    /// The extracted equality conjuncts usable as hash-join keys.
    pub fn equi_candidates(&self) -> &[EquiCandidate] {
        &self.equi
    }

    /// Number of compiled predicates.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// True when the set is empty (every composite satisfies it).
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Partial evaluation, mirroring
    /// [`crate::predicate::satisfies_available`]: predicates whose atoms
    /// are not all present are skipped; the rest must hold under a single
    /// group-row mapping.
    pub fn eval(
        &self,
        composite: &CompositeTuple,
        s: &mut EvalScratch,
    ) -> Result<bool, QueryError> {
        // Locate each compiled atom in this composite.
        s.comp_idx.clear();
        for a in &self.atoms {
            let pos = composite
                .atoms
                .iter()
                .position(|x| x == a)
                .unwrap_or(usize::MAX);
            s.comp_idx.push(pos);
        }

        // Active-predicate filter, in predicate order.
        s.active.clear();
        for (i, p) in self.preds.iter().enumerate() {
            let present = match p {
                CompiledPred::Selection { left, .. } => s.comp_idx[left.atom_idx] != usize::MAX,
                CompiledPred::Join { left, right, .. } => {
                    s.comp_idx[left.atom_idx] != usize::MAX
                        && s.comp_idx[right.atom_idx] != usize::MAX
                }
            };
            if present {
                s.active.push(i);
            }
        }
        if s.active.is_empty() {
            return Ok(true);
        }

        // Collect the groups referenced by active predicates; slot order
        // is the interpreter's sorted order.
        s.group_used.clear();
        s.group_used.resize(self.groups.len(), false);
        for &i in &s.active {
            match &self.preds[i] {
                CompiledPred::Selection { left, .. } => {
                    if left.sub.is_some() {
                        s.group_used[left.group_slot] = true;
                    }
                }
                CompiledPred::Join { left, right, .. } => {
                    if left.sub.is_some() {
                        s.group_used[left.group_slot] = true;
                    }
                    if right.sub.is_some() {
                        s.group_used[right.group_slot] = true;
                    }
                }
            }
        }
        s.counts.clear();
        s.counts.resize(self.groups.len(), 0);
        s.order.clear();
        for (slot, g) in self.groups.iter().enumerate() {
            if !s.group_used[slot] {
                continue;
            }
            let n = composite.components[s.comp_idx[g.atom_idx]]
                .group_at(g.field)
                .len();
            if n == 0 {
                // No mapping exists for an empty referenced group.
                return Ok(false);
            }
            s.counts[slot] = n;
            s.order.push(slot);
        }

        // Odometer over row choices; order[0] advances fastest.
        s.rows.clear();
        s.rows.resize(self.groups.len(), 0);
        loop {
            let mut all_hold = true;
            for &i in &s.active {
                let holds = match &self.preds[i] {
                    CompiledPred::Selection { left, op, value } => {
                        let lv = self.value_of(left, composite, s)?;
                        op.eval(lv, value).map_err(QueryError::Model)?
                    }
                    CompiledPred::Join { left, op, right } => {
                        let lv = self.value_of(left, composite, s)?;
                        let rv = self.value_of(right, composite, s)?;
                        op.eval(lv, rv).map_err(QueryError::Model)?
                    }
                };
                if !holds {
                    all_hold = false;
                    break;
                }
            }
            if all_hold {
                return Ok(true);
            }
            let mut k = 0;
            loop {
                if k == s.order.len() {
                    return Ok(false);
                }
                let slot = s.order[k];
                s.rows[slot] += 1;
                if s.rows[slot] < s.counts[slot] {
                    break;
                }
                s.rows[slot] = 0;
                k += 1;
            }
        }
    }

    /// Compiles a vectorized evaluation plan for the common join/filter
    /// shape: a *fixed* composite (zero or more atoms, constant across a
    /// batch) paired row-by-row with a *varying* side whose referenced
    /// attributes are available as typed columns.
    ///
    /// Returns `None` — caller stays on the scalar path — when any
    /// predicate active under `fixed ∪ varying` is grouped or not
    /// statically total, or when the two atom sets overlap. Predicates
    /// referencing atoms outside both sets are inactive for every row of
    /// the batch and are skipped, exactly like [`Self::eval`]'s
    /// active-predicate filter.
    pub fn batch_plan(
        &self,
        fixed_atoms: &[Symbol],
        varying_atoms: &[Symbol],
    ) -> Option<BatchPlan> {
        if fixed_atoms.iter().any(|a| varying_atoms.contains(a)) {
            return None;
        }
        enum Resolved {
            Absent,
            Grouped,
            Operand(BatchOperand),
        }
        let mut cols: Vec<(Symbol, usize)> = Vec::new();
        let mut preds = Vec::new();
        for (i, p) in self.preds.iter().enumerate() {
            let mut resolve = |acc: &Accessor| -> Resolved {
                let atom = self.atoms[acc.atom_idx];
                let fixed = fixed_atoms.contains(&atom);
                if !fixed && !varying_atoms.contains(&atom) {
                    return Resolved::Absent;
                }
                if acc.sub.is_some() {
                    return Resolved::Grouped;
                }
                if fixed {
                    Resolved::Operand(BatchOperand::Fixed {
                        atom,
                        field: acc.field,
                    })
                } else {
                    let col = match cols.iter().position(|c| *c == (atom, acc.field)) {
                        Some(c) => c,
                        None => {
                            cols.push((atom, acc.field));
                            cols.len() - 1
                        }
                    };
                    Resolved::Operand(BatchOperand::Varying { col })
                }
            };
            match p {
                CompiledPred::Selection { left, op, value } => match resolve(left) {
                    Resolved::Absent => continue,
                    Resolved::Grouped => return None,
                    Resolved::Operand(l) => {
                        if !self.totals[i] {
                            return None;
                        }
                        preds.push(BatchPred {
                            left: l,
                            op: *op,
                            right: BatchOperand::Const(value.clone()),
                        });
                    }
                },
                CompiledPred::Join { left, op, right } => match (resolve(left), resolve(right)) {
                    (Resolved::Absent, _) | (_, Resolved::Absent) => continue,
                    (Resolved::Grouped, _) | (_, Resolved::Grouped) => return None,
                    (Resolved::Operand(l), Resolved::Operand(r)) => {
                        if !self.totals[i] {
                            return None;
                        }
                        preds.push(BatchPred {
                            left: l,
                            op: *op,
                            right: r,
                        });
                    }
                },
            }
        }
        Some(BatchPlan { cols, preds })
    }

    fn value_of<'t>(
        &self,
        acc: &Accessor,
        composite: &'t CompositeTuple,
        s: &EvalScratch,
    ) -> Result<&'t Value, QueryError> {
        let tuple = &composite.components[s.comp_idx[acc.atom_idx]];
        match acc.sub {
            None => Ok(tuple.atomic_at(acc.field)),
            Some(sub) => {
                let row = s.rows[acc.group_slot];
                tuple
                    .group_at(acc.field)
                    .get(row)
                    .and_then(|r| r.values.get(sub))
                    .ok_or_else(|| {
                        QueryError::Model(seco_model::ModelError::SchemaViolation {
                            service: self.schema_names[acc.atom_idx].clone(),
                            detail: format!("group `{}` has no row {row}", acc.attr),
                        })
                    })
            }
        }
    }
}

/// Operand of a batch predicate.
#[derive(Debug, Clone)]
enum BatchOperand {
    /// Atomic field of the fixed composite, read once per kernel call.
    Fixed { atom: Symbol, field: usize },
    /// Column of the varying side (index into [`BatchPlan::columns`]).
    Varying { col: usize },
    /// Constant from a selection predicate.
    Const(Value),
}

#[derive(Debug, Clone)]
struct BatchPred {
    left: BatchOperand,
    op: Comparator,
    right: BatchOperand,
}

/// A vectorized evaluation plan produced by
/// [`CompiledPredicates::batch_plan`]: the active predicates with
/// operands resolved to fixed-composite fields, varying-side columns,
/// or constants.
///
/// The kernels are a batch mirror of the scalar conjunction: predicates
/// refine the selection in compile order, rows drop out at their first
/// failing predicate, and any pair the scalar evaluator would *error*
/// on (`NaN` under numeric promotion, incompatible variants hiding in a
/// `Mixed` column) makes the kernel report a fallback instead of a
/// result — the caller then re-runs the scalar path, which reproduces
/// the error exactly.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    /// Distinct `(varying atom, field slot)` columns the kernels read.
    cols: Vec<(Symbol, usize)>,
    preds: Vec<BatchPred>,
}

/// An unpacked scalar operand: one row of a column, a fixed field, or a
/// constant, without the `Value` allocation.
#[derive(Clone, Copy)]
enum Cell<'a> {
    Null,
    B(bool),
    I(i64),
    F(f64),
    T(&'a str),
    D(seco_model::Date),
}

impl<'a> Cell<'a> {
    #[inline(always)]
    fn of(v: &'a Value) -> Cell<'a> {
        match v {
            Value::Null => Cell::Null,
            Value::Bool(b) => Cell::B(*b),
            Value::Int(i) => Cell::I(*i),
            Value::Float(f) => Cell::F(*f),
            Value::Text(s) => Cell::T(s.as_str()),
            Value::Date(d) => Cell::D(*d),
        }
    }
}

/// Row `i` of a column as a [`Cell`].
#[inline(always)]
fn cell_at<'a>(col: &ColumnRef<'a>, i: usize) -> Cell<'a> {
    match *col {
        ColumnRef::Int(v, n) => {
            if n.get(i) {
                Cell::Null
            } else {
                Cell::I(v[i])
            }
        }
        ColumnRef::Float(v, n) => {
            if n.get(i) {
                Cell::Null
            } else {
                Cell::F(v[i])
            }
        }
        ColumnRef::Bool(v, n) => {
            if n.get(i) {
                Cell::Null
            } else {
                Cell::B(v[i])
            }
        }
        ColumnRef::Text(v, n) => {
            if n.get(i) {
                Cell::Null
            } else {
                Cell::T(v.get(i))
            }
        }
        ColumnRef::Date(v, n) => {
            if n.get(i) {
                Cell::Null
            } else {
                Cell::D(v[i])
            }
        }
        ColumnRef::Mixed(v) => Cell::of(&v[i]),
    }
}

#[inline(always)]
fn ord_keep(op: Comparator, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering;
    match op {
        Comparator::Eq => ord == Ordering::Equal,
        Comparator::Lt => ord == Ordering::Less,
        Comparator::Le => ord != Ordering::Greater,
        Comparator::Gt => ord == Ordering::Greater,
        Comparator::Ge => ord != Ordering::Less,
        Comparator::Like => unreachable!("Like handled before ordering"),
    }
}

#[inline(always)]
fn float_keep(op: Comparator, a: f64, b: f64, fallback: &mut bool) -> bool {
    match a.partial_cmp(&b) {
        Some(o) => ord_keep(op, o),
        // NaN: the scalar evaluator raises `IncomparableValues` here.
        None => {
            *fallback = true;
            false
        }
    }
}

/// Batch mirror of [`Comparator::eval`] over unpacked cells. Pairs the
/// scalar evaluator would error on set `fallback` (and return `false`);
/// the caller must then discard the batch result.
#[inline(always)]
fn cell_keep(op: Comparator, l: Cell<'_>, r: Cell<'_>, fallback: &mut bool) -> bool {
    use Cell::*;
    if op == Comparator::Like {
        return match (l, r) {
            (T(s), T(p)) => like_match(s, p),
            (Null, _) | (_, Null) => false,
            _ => {
                *fallback = true;
                false
            }
        };
    }
    match (l, r) {
        // SQL `WHERE` null semantics, as in the scalar evaluator.
        (Null, Null) => op == Comparator::Eq,
        (Null, _) | (_, Null) => false,
        (I(a), I(b)) => ord_keep(op, a.cmp(&b)),
        (B(a), B(b)) => ord_keep(op, a.cmp(&b)),
        (D(a), D(b)) => ord_keep(op, a.cmp(&b)),
        (T(a), T(b)) => ord_keep(op, a.cmp(b)),
        (I(a), F(b)) => float_keep(op, a as f64, b, fallback),
        (F(a), I(b)) => float_keep(op, a, b as f64, fallback),
        (F(a), F(b)) => float_keep(op, a, b, fallback),
        _ => {
            *fallback = true;
            false
        }
    }
}

/// One side of a predicate resolved for a kernel call.
enum Side<'a> {
    Val(Cell<'a>),
    Col(ColumnRef<'a>),
}

impl BatchPlan {
    /// The distinct `(varying atom, field slot)` columns the kernels
    /// read; [`Self::eval_mask`] takes `ColumnRef`s in this order.
    pub fn columns(&self) -> &[(Symbol, usize)] {
        &self.cols
    }

    /// True when no predicate is active for this batch shape (every row
    /// trivially passes).
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Refines `mask` (callers preset it, typically to all ones) to the
    /// rows of the varying side that satisfy every active predicate
    /// against `fixed`. Returns `false` when the batch path cannot
    /// decide (a pair the scalar evaluator errors on, or a fixed atom
    /// missing at runtime): the mask is then unspecified and the caller
    /// must re-evaluate with [`CompiledPredicates::eval`].
    #[must_use]
    pub fn eval_mask(
        &self,
        fixed: Option<&CompositeTuple>,
        cols: &[ColumnRef<'_>],
        mask: &mut BitMask,
    ) -> bool {
        debug_assert_eq!(cols.len(), self.cols.len());
        let mut fallback = false;
        for p in &self.preds {
            let (Some(left), Some(right)) = (
                self.side(&p.left, fixed, cols),
                self.side(&p.right, fixed, cols),
            ) else {
                return false;
            };
            match (left, right) {
                (Side::Val(a), Side::Val(b)) => {
                    // Constant under this batch: decide once.
                    if !cell_keep(p.op, a, b, &mut fallback) && !fallback {
                        mask.clear_all();
                    }
                }
                (Side::Val(a), Side::Col(c)) => match (p.op, a, c) {
                    // Branch-free fast path: non-null integer scalar
                    // against an integer column never errors.
                    (op, Cell::I(k), ColumnRef::Int(v, nulls)) if op != Comparator::Like => {
                        mask.retain_with(|i| !nulls.get(i) & ord_keep(op, k.cmp(&v[i])));
                    }
                    (op, a, c) => {
                        mask.retain_with(|i| cell_keep(op, a, cell_at(&c, i), &mut fallback));
                    }
                },
                (Side::Col(c), Side::Val(b)) => match (p.op, c, b) {
                    (op, ColumnRef::Int(v, nulls), Cell::I(k)) if op != Comparator::Like => {
                        mask.retain_with(|i| !nulls.get(i) & ord_keep(op, v[i].cmp(&k)));
                    }
                    (op, c, b) => {
                        mask.retain_with(|i| cell_keep(op, cell_at(&c, i), b, &mut fallback));
                    }
                },
                (Side::Col(c), Side::Col(d)) => match (p.op, c, d) {
                    (op, ColumnRef::Int(v, vn), ColumnRef::Int(w, wn))
                        if op != Comparator::Like =>
                    {
                        mask.retain_with(|i| {
                            !(vn.get(i) | wn.get(i)) & ord_keep(op, v[i].cmp(&w[i]))
                        });
                    }
                    (op, c, d) => {
                        mask.retain_with(|i| {
                            cell_keep(op, cell_at(&c, i), cell_at(&d, i), &mut fallback)
                        });
                    }
                },
            }
            if fallback {
                return false;
            }
            if mask.none_set() {
                // Every row already failed; the scalar evaluator would
                // short-circuit before the remaining predicates too.
                return true;
            }
        }
        true
    }

    fn side<'a>(
        &self,
        o: &'a BatchOperand,
        fixed: Option<&'a CompositeTuple>,
        cols: &[ColumnRef<'a>],
    ) -> Option<Side<'a>> {
        match o {
            BatchOperand::Const(v) => Some(Side::Val(Cell::of(v))),
            BatchOperand::Varying { col } => Some(Side::Col(cols[*col])),
            BatchOperand::Fixed { atom, field } => {
                let f = fixed?;
                let pos = f.atoms.iter().position(|a| a == atom)?;
                match f.components[pos].fields.get(*field)? {
                    seco_model::tuple::FieldSlot::Atomic(v) => Some(Side::Val(Cell::of(v))),
                    seco_model::tuple::FieldSlot::Group(_) => None,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::JoinPredicate;
    use crate::predicate::satisfies_available;
    use seco_model::{AttributePath, ServiceSchema};
    use seco_services::table::chapter_semantics_example;
    use seco_services::Service;

    fn setup() -> (
        Vec<seco_model::SharedTuple>,
        Vec<seco_model::SharedTuple>,
        ServiceSchema,
        ServiceSchema,
    ) {
        let (s1, s2) = chapter_semantics_example();
        (
            s1.rows().to_vec(),
            s2.rows().to_vec(),
            s1.interface().schema.clone(),
            s2.interface().schema.clone(),
        )
    }

    fn schema_map<'a>(entries: &[(&str, &'a ServiceSchema)]) -> SchemaMap<'a> {
        entries.iter().map(|(a, s)| ((*a).to_owned(), *s)).collect()
    }

    #[test]
    fn compiled_matches_interpreter_on_the_chapter_example() {
        // Q1 selections (grouped paths) and Q2 joins over S1/S2.
        let (s1_rows, s2_rows, s1_schema, s2_schema) = setup();
        let schemas = schema_map(&[("S1", &s1_schema), ("S2", &s2_schema)]);
        let preds = vec![
            ResolvedPredicate::Join(JoinPredicate {
                left: QualifiedPath::new("S1", AttributePath::sub("R", "A")),
                op: Comparator::Eq,
                right: QualifiedPath::new("S2", AttributePath::sub("R", "A")),
            }),
            ResolvedPredicate::Join(JoinPredicate {
                left: QualifiedPath::new("S1", AttributePath::sub("R", "B")),
                op: Comparator::Eq,
                right: QualifiedPath::new("S2", AttributePath::sub("R", "B")),
            }),
        ];
        let compiled = CompiledPredicates::compile(&preds, &schemas).expect("compiles");
        let mut scratch = EvalScratch::default();
        for x in &s1_rows {
            for y in &s2_rows {
                let c = CompositeTuple::single("S1", x.clone()).extend_with("S2", y.clone());
                let interp = satisfies_available(&preds, &c, &schemas).unwrap();
                let comp = compiled.eval(&c, &mut scratch).unwrap();
                assert_eq!(interp, comp, "divergence on {c}");
            }
        }
        // Grouped paths must not become equi candidates.
        assert!(compiled.equi_candidates().is_empty());
    }

    #[test]
    fn compiled_skips_predicates_with_missing_atoms() {
        let (s1_rows, _, s1_schema, s2_schema) = setup();
        let schemas = schema_map(&[("S1", &s1_schema), ("S2", &s2_schema)]);
        let preds = vec![ResolvedPredicate::Join(JoinPredicate {
            left: QualifiedPath::new("S1", AttributePath::sub("R", "A")),
            op: Comparator::Eq,
            right: QualifiedPath::new("S2", AttributePath::sub("R", "A")),
        })];
        let compiled = CompiledPredicates::compile(&preds, &schemas).expect("compiles");
        let mut scratch = EvalScratch::default();
        let partial = CompositeTuple::single("S1", s1_rows[0].clone());
        assert!(compiled.eval(&partial, &mut scratch).unwrap());
        assert!(satisfies_available(&preds, &partial, &schemas).unwrap());
    }

    #[test]
    fn selection_on_grouped_path_matches_interpreter() {
        let (s1_rows, _, s1_schema, _) = setup();
        let schemas = schema_map(&[("S1", &s1_schema)]);
        let preds = vec![
            ResolvedPredicate::Selection {
                left: QualifiedPath::new("S1", AttributePath::sub("R", "A")),
                op: Comparator::Eq,
                value: Value::Int(1),
            },
            ResolvedPredicate::Selection {
                left: QualifiedPath::new("S1", AttributePath::sub("R", "B")),
                op: Comparator::Eq,
                value: Value::text("x"),
            },
        ];
        let compiled = CompiledPredicates::compile(&preds, &schemas).expect("compiles");
        let mut scratch = EvalScratch::default();
        for row in &s1_rows {
            let c = CompositeTuple::single("S1", row.clone());
            assert_eq!(
                satisfies_available(&preds, &c, &schemas).unwrap(),
                compiled.eval(&c, &mut scratch).unwrap(),
            );
        }
    }

    #[test]
    fn malformed_sets_are_rejected_with_the_interpreters_error() {
        let (s1_rows, _, s1_schema, _) = setup();
        let schemas = schema_map(&[("S1", &s1_schema)]);
        for path in [
            QualifiedPath::new("Nope", AttributePath::atomic("X")),
            QualifiedPath::new("S1", AttributePath::atomic("Bogus")),
            QualifiedPath::new("S1", AttributePath::sub("R", "Bogus")),
        ] {
            let preds = vec![ResolvedPredicate::Selection {
                left: path.clone(),
                op: Comparator::Eq,
                value: Value::Int(1),
            }];
            let compiled = CompiledPredicates::compile(&preds, &schemas).map(|_| ());
            // An absent atom makes the predicate inactive for the
            // interpreter; the schema map is what compilation checks.
            let mut with_atom = CompositeTuple::single("S1", s1_rows[0].clone());
            if path.atom == "Nope" {
                with_atom = with_atom.extend_with("Nope", s1_rows[1].clone());
            }
            let interpreted = satisfies_available(&preds, &with_atom, &schemas).map(|_| ());
            assert!(compiled.is_err(), "{path:?} must not compile");
            assert_eq!(compiled, interpreted, "{path:?}");
        }
    }

    #[test]
    fn equi_candidates_require_atomic_distinct_compatible_sides() {
        use seco_model::{Adornment, AttributeDef, DataType};
        let left = ServiceSchema::new(
            "L1",
            vec![
                AttributeDef::atomic("Key", DataType::Text, Adornment::Output),
                AttributeDef::atomic("N", DataType::Int, Adornment::Output),
            ],
        )
        .unwrap();
        let right = ServiceSchema::new(
            "R1",
            vec![
                AttributeDef::atomic("Key", DataType::Text, Adornment::Output),
                AttributeDef::atomic("M", DataType::Float, Adornment::Output),
                AttributeDef::atomic("Flag", DataType::Bool, Adornment::Output),
            ],
        )
        .unwrap();
        let schemas = schema_map(&[("L", &left), ("R", &right)]);
        let preds = vec![
            // Text = Text: candidate.
            ResolvedPredicate::Join(JoinPredicate {
                left: QualifiedPath::new("L", AttributePath::atomic("Key")),
                op: Comparator::Eq,
                right: QualifiedPath::new("R", AttributePath::atomic("Key")),
            }),
            // Int = Float: numeric promotion, still a candidate.
            ResolvedPredicate::Join(JoinPredicate {
                left: QualifiedPath::new("L", AttributePath::atomic("N")),
                op: Comparator::Eq,
                right: QualifiedPath::new("R", AttributePath::atomic("M")),
            }),
            // Lt: not an equality, but total — does not block the others.
            ResolvedPredicate::Join(JoinPredicate {
                left: QualifiedPath::new("L", AttributePath::atomic("N")),
                op: Comparator::Lt,
                right: QualifiedPath::new("R", AttributePath::atomic("M")),
            }),
        ];
        let compiled = CompiledPredicates::compile(&preds, &schemas).expect("compiles");
        let equi = compiled.equi_candidates();
        assert_eq!(equi.len(), 2);
        assert!(equi[0].left_atom.is("L") && equi[0].right_atom.is("R"));
        assert_eq!(equi[0].left_field, 0);
        assert_eq!(equi[0].right_field, 0);
        assert_eq!(equi[1].left_field, 1);
        assert_eq!(equi[1].right_field, 1);

        // An incomparable predicate (Int = Bool) makes the interpreter
        // error at runtime; its presence suppresses every equi key so the
        // fallback path keeps erroring on the same pairs.
        let with_incomparable = [
            preds[0].clone(),
            ResolvedPredicate::Join(JoinPredicate {
                left: QualifiedPath::new("L", AttributePath::atomic("N")),
                op: Comparator::Eq,
                right: QualifiedPath::new("R", AttributePath::atomic("Flag")),
            }),
        ];
        let compiled = CompiledPredicates::compile(&with_incomparable, &schemas).expect("compiles");
        assert!(compiled.equi_candidates().is_empty());
    }

    use seco_model::{Adornment, AttributeDef, ChunkColumns, DataType, Tuple};

    fn flat_pair() -> (ServiceSchema, ServiceSchema) {
        let left = ServiceSchema::new(
            "L1",
            vec![
                AttributeDef::atomic("Key", DataType::Text, Adornment::Output),
                AttributeDef::atomic("N", DataType::Int, Adornment::Output),
            ],
        )
        .unwrap();
        let right = ServiceSchema::new(
            "R1",
            vec![
                AttributeDef::atomic("Key", DataType::Text, Adornment::Output),
                AttributeDef::atomic("M", DataType::Float, Adornment::Output),
                AttributeDef::atomic("Name", DataType::Text, Adornment::Output),
            ],
        )
        .unwrap();
        (left, right)
    }

    fn flat_preds() -> Vec<ResolvedPredicate> {
        vec![
            ResolvedPredicate::Join(JoinPredicate {
                left: QualifiedPath::new("L", AttributePath::atomic("Key")),
                op: Comparator::Eq,
                right: QualifiedPath::new("R", AttributePath::atomic("Key")),
            }),
            ResolvedPredicate::Join(JoinPredicate {
                left: QualifiedPath::new("L", AttributePath::atomic("N")),
                op: Comparator::Le,
                right: QualifiedPath::new("R", AttributePath::atomic("M")),
            }),
            ResolvedPredicate::Selection {
                left: QualifiedPath::new("R", AttributePath::atomic("M")),
                op: Comparator::Gt,
                value: Value::Float(0.25),
            },
            ResolvedPredicate::Selection {
                left: QualifiedPath::new("R", AttributePath::atomic("Name")),
                op: Comparator::Like,
                value: Value::text("a%"),
            },
        ]
    }

    fn right_rows(schema: &ServiceSchema) -> Vec<Tuple> {
        let keys = ["k0", "k1", "k2", "k0", "k1"];
        let ms = [
            Value::Float(0.1),
            Value::Float(0.5),
            Value::Null,
            Value::Float(2.0),
            Value::Float(-0.0),
        ];
        let names = ["alpha", "beta", "aleph", "a", "omega"];
        (0..keys.len())
            .map(|i| {
                Tuple::builder(schema)
                    .set("Key", Value::text(keys[i]))
                    .set("M", ms[i].clone())
                    .set("Name", Value::text(names[i]))
                    .build()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn batch_mask_matches_scalar_eval() {
        let (l_schema, r_schema) = flat_pair();
        let schemas = schema_map(&[("L", &l_schema), ("R", &r_schema)]);
        let preds = flat_preds();
        let compiled = CompiledPredicates::compile(&preds, &schemas).expect("compiles");
        let plan = compiled
            .batch_plan(&[Symbol::intern("L")], &[Symbol::intern("R")])
            .expect("flat total predicates batch");

        let r_rows = right_rows(&r_schema);
        let cols_owned = ChunkColumns::from_tuples(&r_rows).unwrap();
        let cols: Vec<_> = plan
            .columns()
            .iter()
            .map(|(_, field)| cols_owned.column(*field).unwrap())
            .collect();

        let l_rows = [
            Tuple::builder(&l_schema)
                .set("Key", Value::text("k0"))
                .set("N", Value::Int(0))
                .build()
                .unwrap(),
            Tuple::builder(&l_schema)
                .set("Key", Value::text("k1"))
                .set("N", Value::Int(1))
                .build()
                .unwrap(),
            Tuple::builder(&l_schema).build().unwrap(), // nulls
        ];
        let mut scratch = EvalScratch::default();
        for x in &l_rows {
            let fixed = CompositeTuple::single("L", x.clone());
            let mut mask = seco_model::BitMask::ones(r_rows.len());
            assert!(plan.eval_mask(Some(&fixed), &cols, &mut mask));
            for (j, y) in r_rows.iter().enumerate() {
                let c = fixed.extend_with("R", y.clone());
                let scalar = compiled.eval(&c, &mut scratch).unwrap();
                assert_eq!(mask.get(j), scalar, "mask row {j} vs {c}");
            }
        }
    }

    #[test]
    fn batch_falls_back_on_nan_exactly_when_scalar_errors() {
        let (l_schema, r_schema) = flat_pair();
        let schemas = schema_map(&[("L", &l_schema), ("R", &r_schema)]);
        let preds = vec![ResolvedPredicate::Selection {
            left: QualifiedPath::new("R", AttributePath::atomic("M")),
            op: Comparator::Gt,
            value: Value::Float(0.0),
        }];
        let compiled = CompiledPredicates::compile(&preds, &schemas).expect("compiles");
        let plan = compiled
            .batch_plan(&[Symbol::intern("L")], &[Symbol::intern("R")])
            .expect("total on paper");
        // A raw NaN smuggled past `Value::float` normalisation.
        let rows = vec![
            Tuple::builder(&r_schema)
                .set("M", Value::Float(1.0))
                .build()
                .unwrap(),
            Tuple::builder(&r_schema)
                .set("M", Value::Float(f64::NAN))
                .build()
                .unwrap(),
        ];
        let chunk = ChunkColumns::from_tuples(&rows).unwrap();
        let cols: Vec<_> = plan
            .columns()
            .iter()
            .map(|(_, field)| chunk.column(*field).unwrap())
            .collect();
        let mut mask = seco_model::BitMask::ones(rows.len());
        assert!(
            !plan.eval_mask(None, &cols, &mut mask),
            "NaN must force the scalar fallback"
        );
        // ... and the scalar path indeed errors on that row.
        let c = CompositeTuple::single("R", rows[1].clone());
        let mut scratch = EvalScratch::default();
        assert!(compiled.eval(&c, &mut scratch).is_err());
    }

    #[test]
    fn grouped_or_nontotal_predicates_do_not_batch() {
        let (s1_rows, _, s1_schema, s2_schema) = setup();
        let _ = s1_rows;
        let schemas = schema_map(&[("S1", &s1_schema), ("S2", &s2_schema)]);
        let grouped = vec![ResolvedPredicate::Join(JoinPredicate {
            left: QualifiedPath::new("S1", AttributePath::sub("R", "A")),
            op: Comparator::Eq,
            right: QualifiedPath::new("S2", AttributePath::sub("R", "A")),
        })];
        let compiled = CompiledPredicates::compile(&grouped, &schemas).expect("compiles");
        assert!(compiled
            .batch_plan(&[Symbol::intern("S1")], &[Symbol::intern("S2")])
            .is_none());
        // ...but inactive grouped predicates do not block a batch over
        // unrelated atoms.
        assert!(compiled
            .batch_plan(&[], &[Symbol::intern("Other")])
            .is_some());
        // Overlapping fixed/varying sets are rejected.
        let (l_schema, r_schema) = flat_pair();
        let schemas = schema_map(&[("L", &l_schema), ("R", &r_schema)]);
        let compiled = CompiledPredicates::compile(&flat_preds(), &schemas).expect("compiles");
        assert!(compiled
            .batch_plan(&[Symbol::intern("R")], &[Symbol::intern("R")])
            .is_none());
    }
}
