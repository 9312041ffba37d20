//! Wire size of tuples, for transfer-size accounting.
//!
//! §5.1 singles out the request-response cost metric as "particularly
//! relevant when the transfer of data over the network is the dominating
//! cost factor". To let experiments weigh calls by payload size rather
//! than just counting them, every chunk is sized as if framed into a
//! compact binary representation; the [`crate::recorder::CallRecorder`]
//! tracks cumulative bytes per service. The format is a simple
//! self-describing tag-length-value layout — an accounting device, not
//! an interchange format — so only its sizes are computed; the encoder
//! itself is kept in the tests, as the reference the sizes must match.

use seco_model::tuple::{FieldSlot, GroupTuple};
use seco_model::{Tuple, Value};

/// Total encoded size in bytes of a slice of tuples — the payload a
/// chunk would occupy on the wire. Accepts both owned (`&[Tuple]`) and
/// shared (`&[SharedTuple]`) slices.
pub fn chunk_wire_size<T: std::borrow::Borrow<Tuple>>(tuples: &[T]) -> usize {
    // Per-chunk envelope (status line, framing) modelled as a flat 32 bytes.
    32 + tuples
        .iter()
        .map(|t| tuple_wire_size(t.borrow()))
        .sum::<usize>()
}

/// Encoded size of one tuple: score `f64`, rank `u32` and field count
/// `u16`, then per slot a kind byte and its payload.
fn tuple_wire_size(t: &Tuple) -> usize {
    let slot = |slot: &FieldSlot| match slot {
        FieldSlot::Atomic(v) => 1 + value_wire_size(v),
        FieldSlot::Group(rows) => group_wire_size(rows),
    };
    8 + 4 + 2 + t.fields.iter().map(slot).sum::<usize>()
}

/// Encoded size of one group slot: kind byte and row count `u16`, then
/// per row a value count `u16` and the tagged values.
fn group_wire_size(rows: &[GroupTuple]) -> usize {
    let row = |r: &GroupTuple| 2 + r.values.iter().map(value_wire_size).sum::<usize>();
    3 + rows.iter().map(row).sum::<usize>()
}

/// Encoded size of one value: a tag byte and its payload.
fn value_wire_size(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Bool(_) => 2,
        Value::Int(_) | Value::Float(_) => 9,
        Value::Text(s) => 5 + s.len(),
        Value::Date(_) => 7,
    }
}

/// Wire size of a whole chunk body, computed straight off the columnar
/// layout when one is present — byte-identical to framing the row view,
/// without materializing it. Row-structured bodies fall back to
/// [`chunk_wire_size`].
pub fn chunk_wire_size_body(body: &crate::invocation::ChunkBody) -> usize {
    use seco_model::{Column, ColumnSlot};
    let Some(cols) = body.columns() else {
        return chunk_wire_size(body.tuples());
    };
    let n = cols.len();
    // Envelope + per-tuple header (score f64, rank u32, field count u16).
    let mut total = 32 + n * (8 + 4 + 2);
    for slot in cols.slots() {
        match slot {
            ColumnSlot::Atomic(col) => {
                // Slot-kind byte plus the tagged value, per row.
                total += n;
                total += match col {
                    Column::Int(_, nulls) | Column::Float(_, nulls) => {
                        let nulled = nulls.count_ones();
                        (n - nulled) * 9 + nulled
                    }
                    Column::Bool(_, nulls) => {
                        let nulled = nulls.count_ones();
                        (n - nulled) * 2 + nulled
                    }
                    Column::Date(_, nulls) => {
                        let nulled = nulls.count_ones();
                        (n - nulled) * 7 + nulled
                    }
                    Column::Text(cells, nulls) => (0..n)
                        .map(|i| {
                            if nulls.get(i) {
                                1
                            } else {
                                5 + cells.get(i).len()
                            }
                        })
                        .sum(),
                    Column::Mixed(vals) => vals.iter().map(value_wire_size).sum(),
                };
            }
            ColumnSlot::Group(rows) => {
                total += rows.iter().map(|r| group_wire_size(r)).sum::<usize>();
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use seco_model::{Adornment, AttributeDef, DataType, Date, ServiceSchema, SubAttributeDef};

    use bytes::{BufMut, Bytes, BytesMut};

    const TAG_NULL: u8 = 0;
    const TAG_BOOL: u8 = 1;
    const TAG_INT: u8 = 2;
    const TAG_FLOAT: u8 = 3;
    const TAG_TEXT: u8 = 4;
    const TAG_DATE: u8 = 5;

    fn put_value(buf: &mut BytesMut, v: &Value) {
        match v {
            Value::Null => buf.put_u8(TAG_NULL),
            Value::Bool(b) => {
                buf.put_u8(TAG_BOOL);
                buf.put_u8(*b as u8);
            }
            Value::Int(i) => {
                buf.put_u8(TAG_INT);
                buf.put_i64(*i);
            }
            Value::Float(f) => {
                buf.put_u8(TAG_FLOAT);
                buf.put_f64(*f);
            }
            Value::Text(s) => {
                buf.put_u8(TAG_TEXT);
                buf.put_u32(s.len() as u32);
                buf.put_slice(s.as_bytes());
            }
            Value::Date(d) => {
                buf.put_u8(TAG_DATE);
                buf.put_i32(d.year);
                buf.put_u8(d.month);
                buf.put_u8(d.day);
            }
        }
    }

    /// Encodes a tuple into the wire format: the reference the sizes
    /// above are checked against.
    fn encode_tuple(t: &Tuple) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_f64(t.score);
        buf.put_u32(t.source_rank as u32);
        buf.put_u16(t.fields.len() as u16);
        for slot in &t.fields {
            match slot {
                FieldSlot::Atomic(v) => {
                    buf.put_u8(0); // slot kind: atomic
                    put_value(&mut buf, v);
                }
                FieldSlot::Group(rows) => {
                    buf.put_u8(1); // slot kind: group
                    buf.put_u16(rows.len() as u16);
                    for row in rows {
                        buf.put_u16(row.values.len() as u16);
                        for v in &row.values {
                            put_value(&mut buf, v);
                        }
                    }
                }
            }
        }
        buf.freeze()
    }

    fn schema() -> ServiceSchema {
        ServiceSchema::new(
            "S",
            vec![
                AttributeDef::atomic("A", DataType::Int, Adornment::Output),
                AttributeDef::atomic("B", DataType::Text, Adornment::Output),
                AttributeDef::atomic("C", DataType::Date, Adornment::Output),
                AttributeDef::group(
                    "G",
                    vec![SubAttributeDef::new(
                        "X",
                        DataType::Float,
                        Adornment::Output,
                    )],
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn encoding_accounts_for_every_field() {
        let s = schema();
        let small = Tuple::builder(&s).build().unwrap();
        let large = Tuple::builder(&s)
            .set("A", Value::Int(12))
            .set("B", Value::text("a considerably longer text value"))
            .set("C", Value::Date(Date::new(2009, 6, 1)))
            .push_group_row("G", vec![Value::float(1.0)])
            .push_group_row("G", vec![Value::float(2.0)])
            .build()
            .unwrap();
        let se = encode_tuple(&small);
        let le = encode_tuple(&large);
        assert!(le.len() > se.len(), "populated tuple must encode larger");
        // Text payload dominates.
        assert!(le.len() >= "a considerably longer text value".len());
    }

    #[test]
    fn encoding_is_deterministic() {
        let s = schema();
        let t = Tuple::builder(&s).set("A", Value::Int(5)).build().unwrap();
        assert_eq!(encode_tuple(&t), encode_tuple(&t));
    }

    #[test]
    fn sizes_match_the_encoder_byte_for_byte() {
        let s = schema();
        let rows = [
            Tuple::builder(&s).build().unwrap(),
            Tuple::builder(&s)
                .set("A", Value::Int(-3))
                .set("B", Value::text("héllo"))
                .set("C", Value::Date(Date::new(2009, 6, 1)))
                .push_group_row("G", vec![Value::float(1.0)])
                .push_group_row("G", vec![Value::Null])
                .build()
                .unwrap(),
        ];
        for t in &rows {
            assert_eq!(tuple_wire_size(t), encode_tuple(t).len(), "{t:?}");
        }
        let encoded: usize = rows.iter().map(|t| encode_tuple(t).len()).sum();
        assert_eq!(chunk_wire_size(&rows), 32 + encoded);
    }

    #[test]
    fn chunk_size_includes_envelope() {
        assert_eq!(chunk_wire_size::<Tuple>(&[]), 32);
        let s = schema();
        let t = Tuple::builder(&s).build().unwrap();
        let one = chunk_wire_size(std::slice::from_ref(&t));
        let two = chunk_wire_size(&[t.clone(), t]);
        assert_eq!(
            two - one,
            one - 32,
            "two tuples add exactly twice one tuple's bytes"
        );
    }

    #[test]
    fn columnar_body_size_matches_row_framing() {
        let s = schema();
        let rows: Vec<Tuple> = (0..7)
            .map(|i| {
                Tuple::builder(&s)
                    .set(
                        "A",
                        if i % 3 == 0 {
                            Value::Null
                        } else {
                            Value::Int(i)
                        },
                    )
                    .set("B", Value::text(format!("text-{i}")))
                    .set("C", Value::Date(Date::new(2009, 1, 1 + i as u8)))
                    .push_group_row("G", vec![Value::float(i as f64)])
                    .source_rank(i as usize)
                    .build()
                    .unwrap()
            })
            .collect();
        let body = crate::invocation::ChunkBody::new(rows.clone(), true);
        assert!(body.is_columnar());
        assert_eq!(chunk_wire_size_body(&body), chunk_wire_size(&rows));
        assert!(
            !body.rows_ready(),
            "sizing a columnar body must not materialize its rows"
        );
        // Row-structured bodies agree too (fallback path).
        let shared: Vec<_> = rows.iter().cloned().map(std::sync::Arc::new).collect();
        let row_body = crate::invocation::ChunkBody::from_shared(shared, true);
        assert_eq!(chunk_wire_size_body(&row_body), chunk_wire_size(&rows));
    }

    #[test]
    fn bool_and_null_encode() {
        let s = ServiceSchema::new(
            "B",
            vec![AttributeDef::atomic("F", DataType::Bool, Adornment::Output)],
        )
        .unwrap();
        let t = Tuple::builder(&s)
            .set("F", Value::Bool(true))
            .build()
            .unwrap();
        let n = Tuple::builder(&s).build().unwrap();
        assert!(encode_tuple(&t).len() > encode_tuple(&n).len());
    }
}
