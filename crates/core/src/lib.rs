//! # spannerlib-core
//!
//! Core value model shared by every crate in the spannerlib workspace.
//!
//! Document spanners (Fagin et al., *J. ACM* 2015) cast information
//! extraction as relational querying over **strings** and **spans**. This
//! crate provides the shared vocabulary for that model:
//!
//! * [`Span`] — a triple ⟨d, i, j⟩ locating the substring `d[i..j]` of a
//!   document `d` (0-based byte offsets, half-open, matching the convention
//!   of the paper's worked example in §2);
//! * [`DocumentStore`] / [`DocId`] — interned document texts, so spans stay
//!   three machine words and identical texts share one id;
//! * [`Value`] — the dynamically-typed two-word cell of a Spannerlog
//!   relation (string, span, int, bool, float) with a *total* order so
//!   relations can be sorted deterministically; a string is a [`Str`],
//!   which carries the hash of its bytes;
//! * [`Relation`] / [`Tuple`] — set-semantics relations over a [`Schema`],
//!   stored flat: [`Rows`] is the row arena, [`RowTable`] its hash table
//!   of row ids;
//! * [`sort_order`] — the one row order: `Value`'s, computed from
//!   packed normalized keys by a radix sort;
//! * [`CoreError`] — shared error type.
//!
//! Everything higher in the stack (the regex-formula engine, the Spannerlog
//! parser and engine, the DataFrame bridge) speaks in these types.

pub mod doc;
pub mod error;
pub mod order;
pub mod relation;
pub mod rows;
pub mod schema;
pub mod span;
pub mod tuple;
pub mod value;

pub use doc::{CompactionReport, DocId, DocumentStore};
pub use error::CoreError;
pub use order::{sort_order, Order};
pub use relation::Relation;
pub use rows::{hash_cells, RowTable, Rows};
pub use schema::{Schema, ValueType};
pub use span::Span;
pub use tuple::Tuple;
pub use value::{Str, Value};
