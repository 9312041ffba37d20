//! # seco-model — the Search Computing data model
//!
//! This crate provides the vocabulary shared by every other crate in the
//! workspace: values and comparators, attributes (atomic and *repeating
//! groups*), tuples and composite result tuples, service schemas with
//! access-pattern *adornments*, service marts / service interfaces /
//! connection patterns, per-service statistics, and the scoring-function
//! classes (step vs. progressive) that Chapter 10 of *Search Computing:
//! Challenges and Directions* uses to classify search services.
//!
//! The model deliberately mirrors the chapter's formalism:
//!
//! * an attribute of a service is either **atomic** (single-valued) or a
//!   **repeating group** (multi-valued set of sub-attribute tuples);
//! * every attribute and sub-attribute carries an adornment — `I`nput,
//!   `O`utput, or `R`anked — describing the access pattern of the service
//!   interface (§5.6 lists the adornments of the running example);
//! * services are partitioned into **exact** services (relational
//!   behaviour, unranked) and **search** services (ranked, chunked);
//! * search services have a **scoring function** whose decay is either a
//!   *step* (most relevant entries within the first `h` chunks) or
//!   *progressive* (e.g. linear or square decay) — §4.1.
//!
//! Everything downstream (query language, plans, join methods, the
//! optimizer, and the execution engine) is written against these types.

pub mod attribute;
pub mod column;
pub mod error;
pub mod mart;
pub mod schema;
pub mod scoring;
pub mod stats;
pub mod symbol;
pub mod tuple;
pub mod value;

pub use attribute::{
    Adornment, AttributeDef, AttributeKind, AttributePath, DataType, SubAttributeDef,
};
pub use column::{BitMask, ChunkColumns, Column, ColumnRef, ColumnSlot, TextCells};
pub use error::ModelError;
pub use mart::{
    AttributeHints, ConnectionPattern, JoinPair, ServiceInterface, ServiceKind, ServiceMart,
};
pub use schema::ServiceSchema;
pub use scoring::{ScoreDecay, ScoringFunction};
pub use stats::ServiceStats;
pub use symbol::{AtomShape, Symbol};
pub use tuple::{CompositeTuple, GroupTuple, SharedTuple, Tuple};
pub use value::{Comparator, Date, Value};

/// Result alias for fallible model operations.
pub type Result<T> = std::result::Result<T, ModelError>;
