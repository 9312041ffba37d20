//! The n-ary join kernel: a chain of joins over two or more groups in
//! one pass, no intermediate composites. The engine runs every clean
//! chain through it, a lone join included; over two groups there is no
//! intermediate to elide, and the kernel is the binary tile join over
//! the same index and candidate walk, without its chunk fetches.
//!
//! A binary cascade `(g0 ⋈ g1) ⋈ g2 ⋈ …` materializes a
//! [`CompositeTuple`] for every row surviving every internal stage,
//! only to tear most of them apart again one stage later. This kernel
//! replays the *exact same* staged exploration — every stage drives the
//! [`TileWalk`] of [`crate::executor::ParallelJoinExecutor::run`] over
//! virtual chunk axes, so chunking, invocation pacing, completion
//! admission, wave order, and per-stage `k` targets all match the
//! cascade tile-for-tile — but represents every intermediate row as a flat
//! vector of per-group row indices. Only the final survivors are
//! materialized (by the same left-to-right merge chain the cascade
//! performs), which is counted in `JoinStats::intermediates_elided`.
//!
//! Candidate enumeration is the binary kernel's: each right chunk's
//! joint keys go into a [`KeyIndex`] (hashes sorted once, the
//! leapfrog-style seek), and each prefix row takes its candidates from
//! [`KeyIndex::candidates`] — its key's rows merged with the chunk's
//! unkeyed rows in ascending row order, the exact nested-loop (i, j)
//! emission order. A key only selects candidates: every one is judged
//! with the full predicate list in predicate order, so results *and*
//! evaluation errors stay byte-identical to the cascade.
//!
//! [`NaryJoin::run`] returns `Ok(None)` — "use the binary cascade" —
//! whenever any precondition for that identity fails:
//!
//! * a group with non-uniform atom signatures, or groups sharing an
//!   atom (diamond plans with common ancestry);
//! * a stage whose predicates compile with residual (non-equi)
//!   conjuncts;
//! * an equi conjunct that is active at its stage but does not span the
//!   prefix and the stage's new group.
//!
//! A stage whose predicates do not compile is an error, as it is for the
//! cascade.

use seco_model::{AtomShape, Comparator, CompositeTuple, Symbol};
use seco_plan::{Completion, Invocation};
use seco_query::predicate::{ResolvedPredicate, SchemaMap};
use seco_query::{CompiledPredicates, QueryError};

use crate::completion::TileWalk;
use crate::error::JoinError;
use crate::index::{joint_key, JoinStats, KeyIndex, ProbeKeys};
use crate::strategy::CallTarget;
use crate::tile::Tile;

/// One internal stage of the cascade being replayed: the parameters the
/// equivalent binary [`crate::executor::ParallelJoinExecutor`] would
/// run with when joining the prefix of earlier groups against the
/// stage's new group.
pub struct NaryStage<'p> {
    /// The stage's join predicates (resolved), in query order.
    pub predicates: &'p [ResolvedPredicate],
    /// Invocation strategy of the equivalent binary stage.
    pub invocation: Invocation,
    /// Completion strategy of the equivalent binary stage.
    pub completion: Completion,
    /// Nested-loop step parameter `h` of the stage's left stream.
    pub h: usize,
    /// Per-stage result target (0 = explore everything) — the cascade
    /// passes the engine's `join_k` to every internal stage, and so
    /// must the replay.
    pub k: usize,
    /// Chunk size of the stage's left (prefix) stream.
    pub left_chunk: usize,
    /// Chunk size of the stage's right (new group) stream.
    pub right_chunk: usize,
}

/// Outcome of an n-ary run: final combinations in the cascade's exact
/// emission order, plus kernel counters.
#[derive(Debug, Clone, PartialEq)]
pub struct NaryOutcome {
    /// Joined composites, byte-identical to the binary cascade's.
    pub results: Vec<CompositeTuple>,
    /// Kernel work counters (`intermediates_elided` counts the rows a
    /// cascade would have materialized at internal stages).
    pub stats: JoinStats,
    /// Output rows of each stage, in stage order: what each join of the
    /// cascade would have emitted (the last is `results.len()`).
    pub stage_rows: Vec<usize>,
}

/// The n-ary join kernel.
pub struct NaryJoin<'p> {
    /// Schemas of every atom appearing in the groups.
    pub schemas: &'p SchemaMap<'p>,
}

/// One oriented equi conjunct of a stage: the prefix (x) side names a
/// group already joined, the y side the stage's new group.
struct KeyedEq {
    x_group: usize,
    /// Component index of `x_atom` inside its group's (uniform)
    /// signature — resolved once so the hot loops skip name lookups.
    x_comp: usize,
    x_field: usize,
    /// Component index of the y atom inside the new group's signature.
    y_comp: usize,
    y_field: usize,
}

/// A stage's compiled key layout: the active equi conjuncts, oriented.
/// Inactive conjuncts (an atom outside every group joined so far) are
/// vacuously true at this stage — exactly the compiled evaluator's
/// active-predicate filter — and are dropped.
struct StagePlan {
    keyed: Vec<KeyedEq>,
}

impl NaryJoin<'_> {
    /// Joins `groups[0] ⋈ groups[1] ⋈ …` under `stages` (one per
    /// internal join). Returns `Ok(None)` when the inputs fall outside
    /// the kernel's byte-identity preconditions — the caller then runs
    /// the binary cascade — and the compile error of the first stage
    /// whose predicate set does not compile.
    pub fn run(
        &self,
        groups: &[Vec<CompositeTuple>],
        stages: &[NaryStage<'_>],
    ) -> Result<Option<NaryOutcome>, JoinError> {
        if groups.len() < 2 || stages.len() != groups.len() - 1 {
            return Ok(None);
        }
        // An inner join over an empty group is empty: only the stages
        // before it have rows to explore.
        let live = groups
            .iter()
            .position(Vec::is_empty)
            .unwrap_or(groups.len());
        // A stage set that does not compile is rejected, as the
        // cascade would reject it.
        let compiled = (stages.iter())
            .map(|stage| CompiledPredicates::compile(stage.predicates, self.schemas))
            .collect::<Result<Vec<_>, _>>()?;
        let Some(plans) = self.plan(&groups[..live], &compiled[..live.saturating_sub(1)]) else {
            return Ok(None);
        };
        let mut stats = JoinStats::default();
        let mut stage_rows = Vec::with_capacity(stages.len());

        // The running prefix: one flat row of `stride` per-group row
        // indices per surviving combination.
        let mut prefix: Vec<u32> = (0..groups[0].len() as u32).collect();
        let mut stride = 1usize;
        for (stage, plan) in stages.iter().zip(&plans) {
            prefix = self.run_stage(groups, &prefix, stride, stage, plan, &mut stats)?;
            stride += 1;
            stage_rows.push(prefix.len() / stride);
            if stage_rows.len() < stages.len() {
                stats.intermediates_elided += (prefix.len() / stride) as u64;
            }
            if prefix.is_empty() {
                // Later stages of the cascade would re-explore empty
                // left streams to the same empty end.
                break;
            }
        }
        if stage_rows.len() < stages.len() {
            stage_rows.resize(stages.len(), 0);
            return Ok(Some(NaryOutcome {
                results: Vec::new(),
                stats,
                stage_rows,
            }));
        }

        // Materialize the survivors. The cascade's left-to-right merge
        // chain over pairwise-disjoint groups (a plan() precondition)
        // is pure concatenation in group order — no shared-atom checks
        // can fire — so each composite is assembled directly.
        // Signatures are uniform per group, so every survivor has the
        // atoms of the group heads, in group order.
        let mut atoms = AtomShape::EMPTY;
        for g in groups {
            atoms = atoms.concat(&g[0].atoms);
        }
        let mut results = Vec::with_capacity(prefix.len() / stride);
        for row in prefix.chunks(stride) {
            let mut components = Vec::with_capacity(atoms.len());
            for (g, &r) in row.iter().enumerate() {
                components.extend_from_slice(&groups[g][r as usize].components);
            }
            results.push(CompositeTuple {
                atoms,
                components: components.into_boxed_slice(),
            });
        }
        Ok(Some(NaryOutcome {
            results,
            stats,
            stage_rows,
        }))
    }

    /// Checks every byte-identity precondition and derives the
    /// per-stage key layouts from the compiled stage sets. `None` = run
    /// the binary cascade instead.
    fn plan(
        &self,
        groups: &[Vec<CompositeTuple>],
        stages: &[CompiledPredicates],
    ) -> Option<Vec<StagePlan>> {
        // Uniform signatures per group, pairwise-disjoint across groups.
        let mut atom_group: Vec<(Symbol, usize)> = Vec::new();
        for (gi, g) in groups.iter().enumerate() {
            let sig = &g[0].atoms;
            if !g.iter().all(|c| &c.atoms == sig) {
                return None;
            }
            for a in sig.iter() {
                if atom_group.iter().any(|(s, _)| s == a) {
                    return None; // shared ancestry: merges can fail
                }
                atom_group.push((*a, gi));
            }
        }
        let group_of = |a: Symbol| atom_group.iter().find(|(s, _)| *s == a).map(|(_, g)| *g);

        let mut plans = Vec::with_capacity(stages.len());
        for (s, compiled) in stages.iter().enumerate() {
            let new_group = s + 1;
            if compiled.equi_candidates().len() != compiled.len() {
                return None; // residual conjuncts: keep the cascade
            }
            // Signatures are uniform per group (checked above), so an
            // atom's component position is a per-stage constant.
            let comp_of = |g: usize, a: Symbol| groups[g][0].atoms.iter().position(|s| *s == a);
            let mut keyed = Vec::new();
            for c in compiled.equi_candidates() {
                let gl = group_of(c.left_atom).filter(|g| *g <= new_group);
                let gr = group_of(c.right_atom).filter(|g| *g <= new_group);
                match (gl, gr) {
                    // An absent atom makes the conjunct inactive at this
                    // stage — vacuously true, forever, in the cascade too.
                    (None, _) | (_, None) => continue,
                    (Some(gl), Some(gr)) if gl == new_group && gr < new_group => {
                        keyed.push(KeyedEq {
                            x_group: gr,
                            x_comp: comp_of(gr, c.right_atom)?,
                            x_field: c.right_field,
                            y_comp: comp_of(new_group, c.left_atom)?,
                            y_field: c.left_field,
                        });
                    }
                    (Some(gl), Some(gr)) if gr == new_group && gl < new_group => {
                        keyed.push(KeyedEq {
                            x_group: gl,
                            x_comp: comp_of(gl, c.left_atom)?,
                            x_field: c.left_field,
                            y_comp: comp_of(new_group, c.right_atom)?,
                            y_field: c.right_field,
                        });
                    }
                    // Active but not spanning prefix ↔ new group.
                    _ => return None,
                }
            }
            plans.push(StagePlan { keyed });
        }
        Some(plans)
    }

    /// Replays one stage's tile walk over virtual chunk axes. Returns
    /// the surviving prefix rows (stride `stride + 1`), in the cascade's
    /// exact emission order.
    #[allow(clippy::too_many_arguments)]
    fn run_stage(
        &self,
        groups: &[Vec<CompositeTuple>],
        prefix: &[u32],
        stride: usize,
        stage: &NaryStage<'_>,
        plan: &StagePlan,
        stats: &mut JoinStats,
    ) -> Result<Vec<u32>, JoinError> {
        let right_group = stride; // groups joined so far == index of the new one
        let right = &groups[right_group];
        let target_k = if stage.k == 0 { usize::MAX } else { stage.k };
        let mut walk = TileWalk::new(stage.invocation, stage.completion, stage.h.max(1))?;
        let lc = stage.left_chunk.max(1);
        let rc = stage.right_chunk.max(1);
        let n_left = prefix.len() / stride;
        let nx_chunks = n_left.div_ceil(lc);
        let ny_chunks = right.len().div_ceil(rc);
        let out_stride = stride + 1;
        let mut out: Vec<u32> = Vec::new();
        let mut rindex: Vec<Option<KeyIndex>> = Vec::new();
        let mut probes: Vec<Option<ProbeKeys>> = Vec::new();

        let row_range = |ci: usize, chunk: usize, total: usize| {
            let s = (ci * chunk).min(total);
            (s, ((ci + 1) * chunk).min(total))
        };

        'calls: while let Some(target) = walk.next_call() {
            let (calls_x, calls_y) = walk.calls();
            let more = match target {
                CallTarget::X => calls_x + 1 < nx_chunks,
                CallTarget::Y => calls_y + 1 < ny_chunks,
            };
            walk.loaded(target, more);
            while let Some(t) = walk.next_tile() {
                self.join_stage_tile(
                    groups,
                    prefix,
                    stride,
                    right,
                    plan,
                    row_range(t.x, lc, n_left),
                    row_range(t.y, rc, right.len()),
                    t,
                    &mut rindex,
                    &mut probes,
                    stats,
                    &mut out,
                )?;
                if out.len() / out_stride >= target_k {
                    break 'calls;
                }
            }
        }
        Ok(out)
    }

    /// Joins one virtual tile in the binary kernel's exact (i, j)
    /// order: per prefix row, its candidates from the right chunk's
    /// [`KeyIndex`], each judged with the full predicate list.
    #[allow(clippy::too_many_arguments)]
    fn join_stage_tile(
        &self,
        groups: &[Vec<CompositeTuple>],
        prefix: &[u32],
        stride: usize,
        right: &[CompositeTuple],
        plan: &StagePlan,
        (xs, xe): (usize, usize),
        (ys, ye): (usize, usize),
        t: Tile,
        rindex: &mut Vec<Option<KeyIndex>>,
        probes: &mut Vec<Option<ProbeKeys>>,
        stats: &mut JoinStats,
        out: &mut Vec<u32>,
    ) -> Result<(), JoinError> {
        if xs >= xe || ys >= ye {
            return Ok(());
        }
        let ny = ye - ys;

        if plan.keyed.is_empty() {
            // No active conjunct: every pair passes vacuously (the
            // compiled evaluator's empty-active case), one counted
            // evaluation per candidate, exactly like the cascade.
            for li in xs..xe {
                let row = &prefix[li * stride..(li + 1) * stride];
                for j in ys..ye {
                    stats.predicate_evals += 1;
                    out.extend_from_slice(row);
                    out.push(j as u32);
                }
            }
            return Ok(());
        }

        // Index the right chunk's keys once (leapfrog trie level).
        let n = plan.keyed.len();
        if rindex.len() <= t.y {
            rindex.resize_with(t.y + 1, || None);
        }
        let index: &KeyIndex = rindex[t.y].get_or_insert_with(|| {
            stats.index_builds += 1;
            KeyIndex::build(ny, |off| {
                let comp = &right[ys + off];
                joint_key(n, |i| {
                    let e = &plan.keyed[i];
                    comp.components[e.y_comp].atomic_at(e.y_field)
                })
            })
        });

        // Extract (or reuse) the prefix chunk's probe keys.
        if probes.len() <= t.x {
            probes.resize_with(t.x + 1, || None);
        }
        let keys: &ProbeKeys = probes[t.x].get_or_insert_with(|| {
            ProbeKeys::build(xe - xs, |off| {
                let row = &prefix[(xs + off) * stride..(xs + off + 1) * stride];
                joint_key(n, |i| {
                    let e = &plan.keyed[i];
                    let comp = &groups[e.x_group][row[e.x_group] as usize];
                    comp.components[e.x_comp].atomic_at(e.x_field)
                })
            })
        });

        let mut cand = Vec::new();
        for li in xs..xe {
            let row = &prefix[li * stride..(li + 1) * stride];
            let cands = index.candidates(keys.at(li - xs), ny, stats, &mut cand);
            for off in cands.iter() {
                verify_and_emit(groups, row, right, ys + off, plan, stats, out)?;
            }
        }
        Ok(())
    }
}

/// Verifies one candidate pair with the full predicate list, in
/// predicate order with short-circuit on false — the compiled
/// evaluator's semantics, errors included — and emits the extended
/// prefix row on success.
fn verify_and_emit(
    groups: &[Vec<CompositeTuple>],
    row: &[u32],
    right: &[CompositeTuple],
    j: usize,
    plan: &StagePlan,
    stats: &mut JoinStats,
    out: &mut Vec<u32>,
) -> Result<(), JoinError> {
    stats.predicate_evals += 1;
    let b = &right[j];
    for e in &plan.keyed {
        let comp = &groups[e.x_group][row[e.x_group] as usize];
        let lt = &comp.components[e.x_comp];
        let rt = &b.components[e.y_comp];
        let ok = Comparator::Eq
            .eval(lt.atomic_at(e.x_field), rt.atomic_at(e.y_field))
            .map_err(QueryError::Model)?;
        if !ok {
            return Ok(());
        }
    }
    out.extend_from_slice(row);
    out.push(j as u32);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{MemoryStream, ParallelJoinExecutor};
    use seco_model::{
        Adornment, AttributeDef, AttributePath, DataType, ScoreDecay, ServiceSchema, Tuple, Value,
    };
    use seco_query::{JoinPredicate, QualifiedPath};

    fn schema(name: &str) -> ServiceSchema {
        ServiceSchema::new(
            name,
            vec![
                AttributeDef::atomic("City", DataType::Text, Adornment::Output),
                AttributeDef::atomic("Score", DataType::Float, Adornment::Ranked),
            ],
        )
        .unwrap()
    }

    fn stream_data(
        atom: &str,
        schema: &ServiceSchema,
        n: usize,
        decay: ScoreDecay,
        modulus: usize,
    ) -> Vec<CompositeTuple> {
        let f = seco_model::ScoringFunction::new(decay, n, 2).unwrap();
        (0..n)
            .map(|i| {
                let t = Tuple::builder(schema)
                    .set("City", Value::Text(format!("city-{}", i % modulus)))
                    .set("Score", Value::float(f.score_at(i)))
                    .score(f.score_at(i))
                    .source_rank(i)
                    .build()
                    .unwrap();
                CompositeTuple::single(atom, t)
            })
            .collect()
    }

    /// A merge-scan stage with `h = 1`.
    fn stage<'p>(
        predicates: &'p [ResolvedPredicate],
        completion: Completion,
        k: usize,
        (left_chunk, right_chunk): (usize, usize),
    ) -> NaryStage<'p> {
        NaryStage {
            predicates,
            invocation: seco_plan::Invocation::merge_scan_even(),
            completion,
            h: 1,
            k,
            left_chunk,
            right_chunk,
        }
    }

    fn eq_pred(la: &str, ra: &str) -> ResolvedPredicate {
        ResolvedPredicate::Join(JoinPredicate {
            left: QualifiedPath::new(la, AttributePath::atomic("City")),
            op: seco_model::Comparator::Eq,
            right: QualifiedPath::new(ra, AttributePath::atomic("City")),
        })
    }

    /// The reference: two chained binary executor runs.
    #[allow(clippy::too_many_arguments)]
    fn cascade(
        schemas: &SchemaMap<'_>,
        a: &[CompositeTuple],
        b: &[CompositeTuple],
        cc: &[CompositeTuple],
        p1: &[ResolvedPredicate],
        p2: &[ResolvedPredicate],
        k: usize,
        chunks: (usize, usize, usize, usize),
    ) -> Vec<CompositeTuple> {
        let (c0, c1, lc2, c2) = chunks;
        let e1 = ParallelJoinExecutor {
            completion: Completion::Triangular,
            k,
            ..ParallelJoinExecutor::new(p1, schemas)
        };
        let mut sa = MemoryStream::new(a.to_vec(), c0);
        let mut sb = MemoryStream::new(b.to_vec(), c1);
        let mid = e1.run(&mut sa, &mut sb).unwrap().results;
        let e2 = ParallelJoinExecutor {
            predicates: p2,
            ..e1
        };
        let mut sm = MemoryStream::new(mid, lc2);
        let mut sc = MemoryStream::new(cc.to_vec(), c2);
        e2.run(&mut sm, &mut sc).unwrap().results
    }

    #[test]
    fn three_way_join_matches_the_binary_cascade() {
        let sa = schema("A1");
        let sb = schema("B1");
        let sc = schema("C1");
        let mut schemas = SchemaMap::new();
        schemas.insert("A".into(), &sa);
        schemas.insert("B".into(), &sb);
        schemas.insert("C".into(), &sc);
        let p1 = vec![eq_pred("A", "B")];
        let p2 = vec![eq_pred("B", "C")];
        let a = stream_data("A", &sa, 12, ScoreDecay::Linear, 3);
        let b = stream_data("B", &sb, 10, ScoreDecay::Quadratic, 3);
        let cc = stream_data("C", &sc, 14, ScoreDecay::Linear, 4);
        for k in [0usize, 7] {
            let want = cascade(&schemas, &a, &b, &cc, &p1, &p2, k, (3, 4, 5, 3));
            let nj = NaryJoin { schemas: &schemas };
            let stages = [
                stage(&p1, Completion::Triangular, k, (3, 4)),
                stage(&p2, Completion::Triangular, k, (5, 3)),
            ];
            let out = nj
                .run(&[a.clone(), b.clone(), cc.clone()], &stages)
                .unwrap()
                .expect("eligible plan");
            assert_eq!(out.results, want, "k={k}");
            if k == 0 {
                assert!(out.stats.intermediates_elided > 0);
            }
        }
    }

    #[test]
    fn shared_ancestry_falls_back() {
        let sa = schema("A1");
        let sb = schema("B1");
        let mut schemas = SchemaMap::new();
        schemas.insert("A".into(), &sa);
        schemas.insert("B".into(), &sb);
        let p = vec![eq_pred("A", "B")];
        let a = stream_data("A", &sa, 4, ScoreDecay::Linear, 2);
        let b = stream_data("B", &sb, 4, ScoreDecay::Linear, 2);
        // Group 2 shares atom A with group 0: merges could fail, so the
        // kernel must defer to the cascade.
        let stages = [
            stage(&p, Completion::Rectangular, 0, (2, 2)),
            stage(&p, Completion::Rectangular, 0, (2, 2)),
        ];
        let nj = NaryJoin { schemas: &schemas };
        let out = nj.run(&[a.clone(), b.clone(), a.clone()], &stages).unwrap();
        assert!(out.is_none());
    }

    #[test]
    fn empty_group_short_circuits() {
        let sa = schema("A1");
        let sb = schema("B1");
        let sc = schema("C1");
        let mut schemas = SchemaMap::new();
        schemas.insert("A".into(), &sa);
        schemas.insert("B".into(), &sb);
        schemas.insert("C".into(), &sc);
        let p1 = vec![eq_pred("A", "B")];
        let p2 = vec![eq_pred("B", "C")];
        let a = stream_data("A", &sa, 4, ScoreDecay::Linear, 2);
        let cc = stream_data("C", &sc, 4, ScoreDecay::Linear, 2);
        let stages = [
            stage(&p1, Completion::Rectangular, 0, (2, 2)),
            stage(&p2, Completion::Rectangular, 0, (2, 2)),
        ];
        let nj = NaryJoin { schemas: &schemas };
        let out = nj
            .run(&[a, Vec::new(), cc], &stages)
            .unwrap()
            .expect("provably empty is still an answer");
        assert!(out.results.is_empty());
    }
}
