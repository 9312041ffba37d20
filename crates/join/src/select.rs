//! Selection: the composites of a stream that satisfy a compiled
//! predicate set, judged one composite at a time.
//!
//! Selection nodes filter composites that arrive row-wise from a join
//! or a pipe stage, so there are no columns to run a batch kernel over;
//! the batch kernels stay with the pipe stages, which read the columns
//! of the fetched chunk bodies.

use seco_model::CompositeTuple;
use seco_query::{CompiledPredicates, EvalScratch, QueryError};

/// Keeps the composites of `input` that satisfy `compiled`, in input
/// order. A selection counts no `predicate_evals`: the stages that
/// produced its input already charged the predicates.
pub fn select(
    compiled: &CompiledPredicates,
    input: Vec<CompositeTuple>,
) -> Result<Vec<CompositeTuple>, QueryError> {
    let (mut kept, mut scratch) = (Vec::new(), EvalScratch::default());
    for c in input {
        if compiled.eval(&c, &mut scratch)? {
            kept.push(c);
        }
    }
    Ok(kept)
}
