//! Predicate evaluation under the repeating-group mapping semantics.
//!
//! §3.1 defines the semantics of a query via a mapping `M` that sends
//! *each repeating group occurring in the predicate set* to **one** row
//! of that group in the candidate tuple; the predicates must all hold
//! under the same mapping. The chapter's own example: with
//! `t1 = ({<1,x>,<2,x>})` and `t2 = ({<2,x>,<1,y>})`, the selection
//! `R.A=1 and R.B=x` keeps `t1` (row `<1,x>` satisfies both) but not
//! `t2` (its sub-attributes satisfy the two conjuncts only in
//! *different* rows).
//!
//! This module implements that semantics by enumerating row choices per
//! referenced group (an "odometer" over the groups' rows) and checking
//! all predicates under each choice. Groups are small (a handful of
//! rows), so exhaustive enumeration is the honest and cheap
//! implementation.

use std::collections::BTreeMap;

use seco_model::{Comparator, CompositeTuple, ServiceSchema, Tuple, Value};

use crate::ast::{JoinPredicate, QualifiedPath, Query, SelectionPredicate};
use crate::error::QueryError;

/// A predicate with its constant side already resolved (no `INPUT`
/// variables left).
#[derive(Debug, Clone, PartialEq)]
pub enum ResolvedPredicate {
    /// `atom.path op value`.
    Selection {
        /// The constrained attribute.
        left: QualifiedPath,
        /// Comparator.
        op: Comparator,
        /// The resolved constant.
        value: Value,
    },
    /// `atomA.path op atomB.path`.
    Join(JoinPredicate),
}

impl ResolvedPredicate {
    /// The atoms this predicate mentions.
    pub fn atoms(&self) -> Vec<&str> {
        match self {
            ResolvedPredicate::Selection { left, .. } => vec![left.atom.as_str()],
            ResolvedPredicate::Join(j) => vec![j.left.atom.as_str(), j.right.atom.as_str()],
        }
    }
}

/// Resolves a query's selection predicates against its `INPUT`
/// assignment, and appends the expanded join predicates.
pub fn resolve_predicates(
    query: &Query,
    expanded_joins: &[JoinPredicate],
) -> Result<Vec<ResolvedPredicate>, QueryError> {
    let mut out = Vec::with_capacity(query.selections.len() + expanded_joins.len());
    for s in &query.selections {
        out.push(ResolvedPredicate::Selection {
            left: s.left.clone(),
            op: s.op,
            value: s.right.resolve(&query.inputs)?,
        });
    }
    for j in expanded_joins {
        out.push(ResolvedPredicate::Join(j.clone()));
    }
    Ok(out)
}

/// Schema lookup for the atoms of a query: alias → schema.
pub type SchemaMap<'a> = BTreeMap<String, &'a ServiceSchema>;

/// Identifies one repeating group of one atom (atom alias, group symbol).
type GroupKey = (String, seco_model::Symbol);

/// Evaluation support: the value of `path` in `tuple` under a group-row
/// assignment.
fn value_under<'t>(
    tuple: &'t Tuple,
    schema: &ServiceSchema,
    path: &seco_model::AttributePath,
    assignment: &BTreeMap<GroupKey, usize>,
    atom: &str,
) -> Result<&'t Value, QueryError> {
    let (idx, sidx) = schema.resolve(path)?;
    match sidx {
        None => Ok(tuple.atomic_at(idx)),
        Some(s) => {
            let key = (atom.to_owned(), path.attr);
            let row = *assignment.get(&key).unwrap_or(&0);
            let rows = tuple.group_at(idx);
            rows.get(row).and_then(|r| r.values.get(s)).ok_or_else(|| {
                QueryError::Model(seco_model::ModelError::SchemaViolation {
                    service: schema.name.clone(),
                    detail: format!("group `{}` has no row {row}", path.attr),
                })
            })
        }
    }
}

/// Partial evaluation under the mapping semantics: predicates
/// mentioning atoms not yet in the composite are skipped (they will be
/// checked once those atoms join); the rest must hold under one
/// group-row mapping.
///
/// This is the evaluator of [`crate::semantics::evaluate_oracle`]. The
/// engine evaluates through [`crate::CompiledPredicates`], which mirrors
/// it decision for decision; keeping the two apart makes the oracle
/// independent of the engine's evaluator.
pub fn satisfies_available(
    predicates: &[ResolvedPredicate],
    composite: &CompositeTuple,
    schemas: &SchemaMap<'_>,
) -> Result<bool, QueryError> {
    // Keep only predicates whose atoms are all present.
    let active: Vec<&ResolvedPredicate> = predicates
        .iter()
        .filter(|p| p.atoms().iter().all(|a| composite.component(a).is_some()))
        .collect();
    if active.is_empty() {
        return Ok(true);
    }

    // Collect the repeating groups referenced by active predicates.
    let mut groups: Vec<(GroupKey, usize)> = Vec::new();
    {
        let mut seen = BTreeMap::new();
        let mut visit = |qp: &QualifiedPath| -> Result<(), QueryError> {
            if qp.path.sub.is_none() {
                return Ok(());
            }
            let schema = schemas
                .get(&qp.atom)
                .ok_or_else(|| QueryError::UnknownAtom(qp.atom.clone()))?;
            let (idx, _) = schema.resolve(&qp.path)?;
            let tuple = composite
                .component(&qp.atom)
                .ok_or_else(|| QueryError::UnknownAtom(qp.atom.clone()))?;
            let key = (qp.atom.clone(), qp.path.attr);
            seen.entry(key).or_insert_with(|| tuple.group_at(idx).len());
            Ok(())
        };
        for p in &active {
            match p {
                ResolvedPredicate::Selection { left, .. } => visit(left)?,
                ResolvedPredicate::Join(j) => {
                    visit(&j.left)?;
                    visit(&j.right)?;
                }
            }
        }
        groups.extend(seen);
    }

    // No mapping exists if a referenced group is empty.
    if groups.iter().any(|(_, n)| *n == 0) {
        return Ok(false);
    }

    // Odometer over row choices.
    let mut choice = vec![0usize; groups.len()];
    loop {
        let assignment: BTreeMap<GroupKey, usize> = groups
            .iter()
            .zip(&choice)
            .map(|((key, _), row)| (key.clone(), *row))
            .collect();
        let mut all_hold = true;
        for p in &active {
            let holds = match p {
                ResolvedPredicate::Selection { left, op, value } => {
                    let schema = schemas
                        .get(&left.atom)
                        .ok_or_else(|| QueryError::UnknownAtom(left.atom.clone()))?;
                    let tuple = composite
                        .component(&left.atom)
                        .ok_or_else(|| QueryError::UnknownAtom(left.atom.clone()))?;
                    let lv = value_under(tuple, schema, &left.path, &assignment, &left.atom)?;
                    op.eval(lv, value).map_err(QueryError::Model)?
                }
                ResolvedPredicate::Join(j) => {
                    let ls = schemas
                        .get(&j.left.atom)
                        .ok_or_else(|| QueryError::UnknownAtom(j.left.atom.clone()))?;
                    let rs = schemas
                        .get(&j.right.atom)
                        .ok_or_else(|| QueryError::UnknownAtom(j.right.atom.clone()))?;
                    let lt = composite
                        .component(&j.left.atom)
                        .ok_or_else(|| QueryError::UnknownAtom(j.left.atom.clone()))?;
                    let rt = composite
                        .component(&j.right.atom)
                        .ok_or_else(|| QueryError::UnknownAtom(j.right.atom.clone()))?;
                    let lv = value_under(lt, ls, &j.left.path, &assignment, &j.left.atom)?;
                    let rv = value_under(rt, rs, &j.right.path, &assignment, &j.right.atom)?;
                    j.op.eval(lv, rv).map_err(QueryError::Model)?
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
        // Advance odometer.
        let mut i = 0;
        loop {
            if i == groups.len() {
                return Ok(false);
            }
            choice[i] += 1;
            if choice[i] < groups[i].1 {
                break;
            }
            choice[i] = 0;
            i += 1;
        }
    }
}

/// Estimated selectivity of a selection predicate set on one atom, used
/// by the annotation step for services that are "selective in the
/// context of a query" (§3.2). Equality on a key-like attribute is
/// highly selective, ranges keep about half: the per-comparator defaults
/// of [`Comparator::default_selectivity`] multiply.
pub fn estimate_selection_selectivity(selections: &[&SelectionPredicate]) -> f64 {
    selections
        .iter()
        .map(|s| s.op.default_selectivity())
        .product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Operand;
    use seco_model::AttributePath;
    use seco_services::table::chapter_semantics_example;
    use seco_services::Service;

    /// Sets up the chapter's S1/S2 data and the schema map.
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
    fn q1_selection_keeps_t1_but_not_t2() {
        // Q1: select S1 where S1.R.A=1 and S1.R.B=x
        let (s1_rows, _, s1_schema, _) = setup();
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
        let schemas = schema_map(&[("S1", &s1_schema)]);
        let t1 = CompositeTuple::single("S1", s1_rows[0].clone());
        let t2 = CompositeTuple::single("S1", s1_rows[1].clone());
        assert!(
            satisfies_available(&preds, &t1, &schemas).unwrap(),
            "t1 must be in Q1's result"
        );
        assert!(
            !satisfies_available(&preds, &t2, &schemas).unwrap(),
            "t2 must NOT be in Q1's result"
        );
    }

    #[test]
    fn q2_join_produces_exactly_the_chapter_pairs() {
        // Q2: select S1, S2 where S1.R.A=S2.R.A and S1.R.B=S2.R.B
        // Expected result: {t1·t3, t1·t4, t2·t4}.
        let (s1_rows, s2_rows, s1_schema, s2_schema) = setup();
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
        let schemas = schema_map(&[("S1", &s1_schema), ("S2", &s2_schema)]);
        let mut result = Vec::new();
        for (i, x) in s1_rows.iter().enumerate() {
            for (j, y) in s2_rows.iter().enumerate() {
                let c = CompositeTuple::single("S1", x.clone()).extend_with("S2", y.clone());
                if satisfies_available(&preds, &c, &schemas).unwrap() {
                    result.push((i, j));
                }
            }
        }
        // (t1,t3), (t1,t4), (t2,t4) — and crucially NOT (t2,t3).
        assert_eq!(result, vec![(0, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn empty_group_means_no_mapping_and_false() {
        let (_, _, s1_schema, _) = setup();
        let empty = seco_model::Tuple::builder(&s1_schema).build().unwrap();
        let preds = vec![ResolvedPredicate::Selection {
            left: QualifiedPath::new("S1", AttributePath::sub("R", "A")),
            op: Comparator::Eq,
            value: Value::Int(1),
        }];
        let schemas = schema_map(&[("S1", &s1_schema)]);
        let c = CompositeTuple::single("S1", empty);
        assert!(!satisfies_available(&preds, &c, &schemas).unwrap());
    }

    #[test]
    fn predicates_on_absent_atoms_are_skipped() {
        let (s1_rows, _, s1_schema, s2_schema) = setup();
        let preds = vec![ResolvedPredicate::Join(JoinPredicate {
            left: QualifiedPath::new("S1", AttributePath::sub("R", "A")),
            op: Comparator::Eq,
            right: QualifiedPath::new("S2", AttributePath::sub("R", "A")),
        })];
        let schemas = schema_map(&[("S1", &s1_schema), ("S2", &s2_schema)]);
        let partial = CompositeTuple::single("S1", s1_rows[0].clone());
        // S2 missing: the join is skipped, so the partial composite passes.
        assert!(satisfies_available(&preds, &partial, &schemas).unwrap());
    }

    #[test]
    fn resolve_predicates_substitutes_inputs() {
        let mut q = crate::builder::QueryBuilder::new()
            .atom("S1", "S1")
            .select_input("S1", "R.A", Comparator::Eq, "INPUT1")
            .build()
            .unwrap();
        q.inputs.insert("INPUT1".into(), Value::Int(1));
        let resolved = resolve_predicates(&q, &[]).unwrap();
        match &resolved[0] {
            ResolvedPredicate::Selection { value, .. } => assert_eq!(value, &Value::Int(1)),
            other => panic!("unexpected {other:?}"),
        }
        // Unbound input errors.
        q.inputs.clear();
        assert!(matches!(
            resolve_predicates(&q, &[]),
            Err(QueryError::UnboundInput(_))
        ));
    }

    #[test]
    fn selection_selectivity_estimate_multiplies() {
        let s1 = SelectionPredicate {
            left: QualifiedPath::new("A", AttributePath::atomic("X")),
            op: Comparator::Eq,
            right: Operand::Const(Value::Int(1)),
        };
        let s2 = SelectionPredicate {
            left: QualifiedPath::new("A", AttributePath::atomic("Y")),
            op: Comparator::Gt,
            right: Operand::Const(Value::Int(1)),
        };
        let est = estimate_selection_selectivity(&[&s1, &s2]);
        assert!((est - 0.05).abs() < 1e-12);
        assert_eq!(estimate_selection_selectivity(&[]), 1.0);
    }
}
