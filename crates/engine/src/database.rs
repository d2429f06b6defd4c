//! Relation storage: declared (extensional) and derived (intensional)
//! relations plus the session-wide document store.
//!
//! Every *extensional* relation carries a **generation counter** bumped
//! on each mutation (declare, import, fact insert, removal). The session
//! fingerprints the generations of exactly the relations a compiled
//! program reads, so an unchanged EDB — or a change to an unrelated
//! relation — skips the fixpoint entirely. This replaces the old global
//! `dirty` flag.

use crate::error::{EngineError, Result};
use crate::optimizer::IndexCache;
use crate::share::is_auxiliary;
use rustc_hash::{FxHashMap, FxHashSet};
use spannerlib_core::{DocumentStore, Relation, Rows, Schema, Tuple, Value};
use std::sync::Arc;

/// What a [`Database`] holds under one name, its generation aside: the
/// relation, whether it is extensional, and the rows a run derived in it.
#[derive(Default)]
pub(crate) struct Slot(
    pub(crate) Option<Relation>,
    pub(crate) bool,
    pub(crate) Option<FxHashSet<usize>>,
);

/// The fact store of one session.
#[derive(Debug, Default, Clone)]
pub struct Database {
    relations: FxHashMap<String, Relation>,
    /// Names created by `new …` declarations or imports (extensional);
    /// everything else is rule-derived (intensional).
    extensional: FxHashMap<String, Schema>,
    /// Per-relation mutation generations (extensional relations only).
    generations: FxHashMap<String, u64>,
    /// Monotone tick backing the generation counters.
    tick: u64,
    /// Per-tuple provenance for relations that are both extensional and
    /// rule heads: the row ids of the tuples the *fixpoint* inserted (as
    /// opposed to host-asserted facts). [`Database::clear_derived`]
    /// retracts exactly these, so re-imports of a rule's inputs no
    /// longer leave stale derived tuples behind. Row ids hold because
    /// nothing else removes rows from a relation in place (maintenance,
    /// which does, never runs over such a relation). Purely derived
    /// relations need no marks — they are dropped wholesale.
    derived_marks: FxHashMap<String, FxHashSet<usize>>,
    /// Hash indexes over `relations`, valid through every mutation. An
    /// evaluation run borrows them and keeps them valid itself; a
    /// maintained run hands them back for the next, which reads the
    /// database it updates from through them.
    pub(crate) indexes: IndexCache,
    /// Interned documents; spans in any relation point here.
    pub docs: DocumentStore,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// The mutation generation of relation `name` (0 when it has never
    /// been touched).
    pub fn generation(&self, name: &str) -> u64 {
        self.generations.get(name).copied().unwrap_or(0)
    }

    fn bump(&mut self, name: &str) {
        self.tick += 1;
        self.generations.insert(name.to_string(), self.tick);
    }

    /// Declares an extensional relation with an explicit schema; a name
    /// only rules derive is free, whatever rows a run left under it.
    pub fn declare(&mut self, name: &str, schema: Schema) -> Result<()> {
        if self.extensional.contains_key(name) {
            return Err(EngineError::DuplicateRelation(name.to_string()));
        }
        self.swap(name, Slot(Some(Relation::new(schema)), true, None));
        Ok(())
    }

    /// Puts `slot` under `name` and returns what it displaced, moved out.
    /// The generation moves unless the name held nothing before or after.
    pub(crate) fn swap(&mut self, name: &str, Slot(relation, extensional, marks): Slot) -> Slot {
        let old = Slot(
            self.relations.remove(name),
            self.extensional.remove(name).is_some(),
            self.derived_marks.remove(name),
        );
        self.indexes.forget(name);
        if old.0.is_some() || relation.is_some() {
            self.bump(name);
        }
        if let Some(relation) = relation {
            if extensional {
                let schema = relation.schema().clone();
                self.extensional.insert(name.to_string(), schema);
            }
            self.relations.insert(name.to_string(), relation);
        }
        if let Some(marks) = marks {
            self.derived_marks.insert(name.to_string(), marks);
        }
        old
    }

    /// Sets the generation of `name` back to one it had.
    pub(crate) fn set_generation(&mut self, name: &str, generation: u64) {
        self.generations.insert(name.to_string(), generation);
    }

    /// The declared schema of an extensional relation, if `name` is one.
    pub fn extensional_schema(&self, name: &str) -> Option<&Schema> {
        self.extensional.get(name)
    }

    /// Whether `name` exists (extensional or derived).
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Whether `name` was declared/imported (as opposed to rule-derived).
    pub fn is_extensional(&self, name: &str) -> bool {
        self.extensional.contains_key(name)
    }

    /// The relation named `name`.
    pub fn relation(&self, name: &str) -> Result<&Relation> {
        self.relations
            .get(name)
            .ok_or_else(|| EngineError::UnknownRelation(name.to_string()))
    }

    /// The relation named `name` as a host sees it: none for one of the
    /// engine's own (`crate::share`), which no host reads or writes.
    pub fn visible(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name).filter(|_| !is_auxiliary(name))
    }

    /// Refuses a name `#` reserves for the engine's own relations.
    pub fn check_name(name: &str) -> Result<()> {
        let reserved = || EngineError::ReservedName(name.to_string());
        (!is_auxiliary(name)).then_some(()).ok_or_else(reserved)
    }

    /// [`Database::visible`], or an empty placeholder where there is none.
    pub fn relation_or_empty(&self, name: &str) -> Relation {
        let visible = self.visible(name).cloned();
        visible.unwrap_or_else(|| Relation::new(Schema::empty()))
    }

    /// Inserts a host-asserted fact, creating a derived relation with
    /// the tuple's own schema on first insertion. Returns `true` when the
    /// tuple is a new fact: a new row, or one a rule derived. Inserts into
    /// extensional relations bump the relation's generation; derived
    /// inserts (the fixpoint hot path) do not.
    pub fn insert(&mut self, name: &str, tuple: Tuple) -> Result<bool> {
        Ok(self.assert_fact(name, tuple.values())?.is_some())
    }

    /// [`Database::insert`] of `row`: `None` when `name` held it as a fact
    /// already, else whether a rule had derived it.
    pub(crate) fn assert_fact(&mut self, name: &str, row: &[Value]) -> Result<Option<bool>> {
        if self.insert_row(name, row)? {
            if self.extensional.contains_key(name) {
                self.bump(name);
            }
            return Ok(Some(false));
        }
        // A fact assertion overrides derived provenance: even if a rule
        // once derived this tuple, it now survives clear_derived.
        let id = self.relations[name].row_id(row);
        let marks = self.derived_marks.get_mut(name);
        Ok(marks
            .zip(id)
            .and_then(|(marks, id)| marks.remove(&id).then_some(true)))
    }

    /// Inserts the rows of one shard's piece, derived by the fixpoint,
    /// cloning a row's cells only if it is new and calling `on_new` after
    /// each new row: its error (a row cap crossed) stops the insert
    /// there. The relation is looked up once per piece. Unlike
    /// [`Database::insert`] it never bumps a generation counter —
    /// derived content is a function of the EDB and the program, so it
    /// must not invalidate the evaluation fingerprint — and new rows
    /// landing in an *extensional* relation are marked with derived
    /// provenance so the next [`Database::clear_derived`] retracts them.
    pub fn insert_derived(
        &mut self,
        name: &str,
        piece: &Rows,
        mut on_new: impl FnMut() -> Result<()>,
    ) -> Result<()> {
        let Some(first) = piece.iter().next() else {
            return Ok(());
        };
        let rel = self.relations.entry(name.to_string()).or_insert_with(|| {
            let types: Vec<_> = first.iter().map(Value::value_type).collect();
            Relation::new(Schema::new(types))
        });
        let mut marks = (self.extensional.contains_key(name))
            .then(|| self.derived_marks.entry(name.to_string()).or_default());
        // Two sites of a shared call may pass it values of two types.
        let untyped = is_auxiliary(name);
        for row in piece.iter() {
            let new = match untyped {
                true => rel.insert_row_unchecked(row),
                false => rel.insert_row(row)?,
            };
            if new {
                if let Some(marks) = &mut marks {
                    marks.insert(rel.len() - 1);
                }
                on_new()?;
            }
        }
        Ok(())
    }

    fn insert_row(&mut self, name: &str, row: &[Value]) -> Result<bool> {
        if let Some(rel) = self.relations.get_mut(name) {
            return Ok(rel.insert_row(row)?);
        }
        let types: Vec<_> = row.iter().map(Value::value_type).collect();
        let mut rel = Relation::new(Schema::new(types));
        rel.insert_row(row)?;
        self.relations.insert(name.to_string(), rel);
        Ok(true)
    }

    /// Clears every *derived* tuple (before re-running the fixpoint):
    /// purely derived relations are dropped wholesale, and relations
    /// that are both extensional and rule heads lose exactly the tuples
    /// the fixpoint put there — host-asserted facts and documents are
    /// preserved.
    pub fn clear_derived(&mut self) {
        self.relations.retain(|name, _| {
            let keep = self.extensional.contains_key(name);
            if !keep {
                self.indexes.forget(name);
            }
            keep
        });
        for (name, marks) in self.derived_marks.drain() {
            if let Some(rel) = self.relations.get_mut(&name).filter(|_| !marks.is_empty()) {
                let new_ids = rel.retain(|id, _| !marks.contains(&id));
                self.indexes.renumber(&name, &new_ids);
            }
        }
    }

    /// A copy that leaves out what [`Database::clear_derived`] would drop
    /// from it — for a full evaluation over a database a snapshot still
    /// shares, which would otherwise copy every derived row to drop it.
    fn without_derived(&self) -> Database {
        let mut copy = Database {
            relations: (self.relations.iter())
                .filter(|(name, _)| self.extensional.contains_key(*name))
                .map(|(name, rel)| (name.clone(), rel.clone()))
                .collect(),
            extensional: self.extensional.clone(),
            generations: self.generations.clone(),
            tick: self.tick,
            derived_marks: self.derived_marks.clone(),
            indexes: IndexCache::default(),
            docs: self.docs.clone(),
        };
        copy.clear_derived();
        copy
    }

    /// Removes the rows of `gone` — all of them when `None` — from the
    /// derived relation `name`, and drops the relation once it is empty,
    /// as a full evaluation that derives nothing into it leaves it
    /// absent. Returns the new id of every old row, for the indexes of
    /// whoever holds them — an evaluation run, which has borrowed the
    /// database's.
    pub(crate) fn remove_derived(
        &mut self,
        name: &str,
        gone: Option<&Relation>,
    ) -> Vec<Option<usize>> {
        let Some(rel) = self.relations.get_mut(name) else {
            return Vec::new();
        };
        let mut keep = vec![gone.is_some(); rel.len()];
        for id in gone
            .into_iter()
            .flat_map(|gone| gone.iter().filter_map(|row| rel.row_id(row)))
        {
            keep[id] = false;
        }
        let new_ids = rel.retain(|id, _| keep[id]);
        if rel.is_empty() {
            self.relations.remove(name);
        }
        new_ids
    }

    /// Puts the rows of `name` in the order of `ids`, a permutation of its
    /// row ids, keeping its generation; its indexes must be forgotten.
    pub(crate) fn reorder(&mut self, name: &str, ids: impl IntoIterator<Item = usize>) {
        if let Some(rel) = self.relations.get_mut(name) {
            *rel = rel.subset(ids);
        }
    }

    /// Takes host-asserted facts back out of `name`: a row a rule had
    /// derived before it was asserted (`true`) is marked derived again,
    /// and any other goes.
    pub(crate) fn retract(&mut self, name: &str, rows: &[(Vec<Value>, bool)]) {
        let Some(rel) = self.relations.get_mut(name) else {
            return;
        };
        let marks = self.derived_marks.entry(name.to_string()).or_default();
        let mut gone = FxHashSet::default();
        for (row, derived) in rows {
            if let Some(id) = rel.row_id(row) {
                let _ = if *derived {
                    marks.insert(id)
                } else {
                    gone.insert(id)
                };
            }
        }
        let new_ids = rel.retain(|id, _| !gone.contains(&id));
        self.indexes.renumber(name, &new_ids);
        *marks = marks.iter().filter_map(|&id| new_ids[id]).collect();
        self.bump(name);
    }

    /// Iterates over `(name, relation)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Relation)> {
        self.relations.iter()
    }

    /// The relations by name, as plan execution reads them.
    pub fn relations(&self) -> &FxHashMap<String, Relation> {
        &self.relations
    }
}

/// `db` without its derived rows and shared with nobody, as a full
/// evaluation starts from: cleared in place, or — when a snapshot still
/// shares it — replaced by a copy of what it keeps, not of everything.
pub(crate) fn cleared(db: &mut Arc<Database>) -> &mut Database {
    if Arc::get_mut(db).is_none() {
        *db = Arc::new(db.without_derived());
    }
    let db = Arc::make_mut(db);
    db.clear_derived();
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use spannerlib_core::{Value, ValueType};

    fn t(vals: &[i64]) -> Tuple {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    /// Inserts `vals` into `name` as a derived piece of one row.
    fn derive(db: &mut Database, name: &str, vals: &[i64]) {
        let mut piece = Rows::new(vals.len());
        piece.push(t(vals).values());
        db.insert_derived(name, &piece, || Ok(())).unwrap();
    }

    /// A piece goes in row by row: repeats are no new rows, and the
    /// error of the new row that crosses a cap stops the insert right
    /// after that row, with the rows before it in.
    #[test]
    fn a_piece_stops_at_the_row_its_callback_refuses() {
        let mut db = Database::new();
        db.declare("E", Schema::new(vec![ValueType::Int])).unwrap();
        derive(&mut db, "E", &[1]);
        let mut piece = Rows::new(1);
        for v in [1, 2, 2, 3, 4, 5] {
            piece.push(&[Value::Int(v)]);
        }
        let mut new = 0;
        let err = db.insert_derived("E", &piece, || {
            new += 1;
            match new {
                3 => Err(EngineError::UnknownRelation("cap".into())),
                _ => Ok(()),
            }
        });
        assert!(matches!(err, Err(EngineError::UnknownRelation(_))));
        assert_eq!(new, 3, "1 and the second 2 are repeats");
        let rel = db.relation("E").unwrap();
        assert_eq!(rel.sorted_tuples(), [t(&[1]), t(&[2]), t(&[3]), t(&[4])]);
        db.clear_derived();
        assert!(
            db.relation("E").unwrap().is_empty(),
            "derived rows are marked"
        );
    }

    #[test]
    fn declare_and_insert() {
        let mut db = Database::new();
        db.declare("R", Schema::new(vec![ValueType::Int])).unwrap();
        assert!(db.insert("R", t(&[1])).unwrap());
        assert!(!db.insert("R", t(&[1])).unwrap());
        assert_eq!(db.relation("R").unwrap().len(), 1);
    }

    #[test]
    fn double_declare_rejected() {
        let mut db = Database::new();
        db.declare("R", Schema::new(vec![ValueType::Int])).unwrap();
        assert!(matches!(
            db.declare("R", Schema::new(vec![ValueType::Int])),
            Err(EngineError::DuplicateRelation(_))
        ));
    }

    #[test]
    fn derived_relation_infers_schema() {
        let mut db = Database::new();
        db.insert("D", Tuple::new([Value::str("a"), Value::Int(1)]))
            .unwrap();
        assert_eq!(
            db.relation("D").unwrap().schema().types(),
            &[ValueType::Str, ValueType::Int]
        );
        // Later inserts must conform.
        assert!(db.insert("D", t(&[1, 2])).is_err());
    }

    #[test]
    fn clear_derived_preserves_extensional() {
        let mut db = Database::new();
        db.declare("E", Schema::new(vec![ValueType::Int])).unwrap();
        db.insert("E", t(&[1])).unwrap();
        db.insert("D", t(&[2])).unwrap();
        db.clear_derived();
        assert!(db.contains("E"));
        assert_eq!(db.relation("E").unwrap().len(), 1);
        assert!(!db.contains("D"));
    }

    #[test]
    fn unknown_relation_errors() {
        let db = Database::new();
        assert!(matches!(
            db.relation("nope"),
            Err(EngineError::UnknownRelation(_))
        ));
    }

    #[test]
    fn generations_track_extensional_mutations_only() {
        let mut db = Database::new();
        assert_eq!(db.generation("E"), 0);
        db.declare("E", Schema::new(vec![ValueType::Int])).unwrap();
        let g_decl = db.generation("E");
        assert!(g_decl > 0);
        db.insert("E", t(&[1])).unwrap();
        let g_fact = db.generation("E");
        assert!(g_fact > g_decl);
        // Duplicate insert: no change.
        db.insert("E", t(&[1])).unwrap();
        assert_eq!(db.generation("E"), g_fact);
        // Derived inserts never bump.
        derive(&mut db, "D", &[2]);
        derive(&mut db, "D", &[3]);
        assert_eq!(db.generation("D"), 0);
        // Unrelated relations are independent.
        db.declare("F", Schema::new(vec![ValueType::Int])).unwrap();
        assert_eq!(db.generation("E"), g_fact);
        // Removal is a mutation; removing nothing is none.
        assert!(db.swap("E", Slot::default()).0.is_some());
        let g_removed = db.generation("E");
        assert!(g_removed > g_fact);
        assert!(db.swap("E", Slot::default()).0.is_none());
        assert_eq!(db.generation("E"), g_removed);
    }

    #[test]
    fn clear_derived_is_exact_on_mixed_relations() {
        let mut db = Database::new();
        db.declare("E", Schema::new(vec![ValueType::Int])).unwrap();
        db.insert("E", t(&[1])).unwrap(); // fact
        derive(&mut db, "E", &[2]); // fixpoint-derived
        derive(&mut db, "E", &[1]); // duplicate of a fact: no mark
        db.clear_derived();
        let rel = db.relation("E").unwrap();
        assert!(rel.contains(&t(&[1])), "facts survive");
        assert!(!rel.contains(&t(&[2])), "derived tuples are retracted");
    }

    #[test]
    fn fact_assertion_overrides_derived_provenance() {
        let mut db = Database::new();
        db.declare("E", Schema::new(vec![ValueType::Int])).unwrap();
        derive(&mut db, "E", &[7]);
        // The host now asserts the same tuple as a fact: a new fact.
        assert!(db.insert("E", t(&[7])).unwrap());
        db.clear_derived();
        assert!(db.relation("E").unwrap().contains(&t(&[7])));
    }

    #[test]
    fn a_swapped_in_relation_clears_stale_marks() {
        let mut db = Database::new();
        db.declare("E", Schema::new(vec![ValueType::Int])).unwrap();
        derive(&mut db, "E", &[1]);
        let mut replacement = Relation::new(Schema::new(vec![ValueType::Int]));
        replacement.insert(t(&[1])).unwrap();
        db.swap("E", Slot(Some(replacement), true, None));
        db.clear_derived();
        assert!(
            db.relation("E").unwrap().contains(&t(&[1])),
            "replacement content is all fact-provenance"
        );
    }

    #[test]
    fn without_derived_copies_what_clear_derived_keeps() {
        let mut db = Database::new();
        db.declare("E", Schema::new(vec![ValueType::Int])).unwrap();
        db.insert("E", t(&[1])).unwrap();
        derive(&mut db, "E", &[2]);
        derive(&mut db, "D", &[3]);
        db.docs.intern("kept");
        let copy = db.without_derived();
        db.clear_derived();
        assert_eq!(copy.relations(), db.relations());
        assert_eq!(copy.generation("E"), db.generation("E"));
        assert_eq!(copy.docs.lookup("kept"), db.docs.lookup("kept"));
    }

    #[test]
    fn extensional_flag() {
        let mut db = Database::new();
        db.declare("E", Schema::new(vec![ValueType::Int])).unwrap();
        db.insert("D", t(&[1])).unwrap();
        assert!(db.is_extensional("E"));
        assert!(!db.is_extensional("D"));
    }
}
