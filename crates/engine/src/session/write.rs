//! The one write path of a [`Session`]. A cell, an import, a
//! declaration, a fact and a removal are each a list of edits, applied
//! in order after the checks each can make alone, logging what each
//! displaced (moved out, not copied). The invariant: after every write
//! the loaded rules compile against the database. A write compiles them
//! once, at its end, only if it added rules or touched a name a rule
//! uses as head or body atom. A refused write is undone from the log and
//! changes nothing: without an evaluation of its own its generations,
//! compiled program and last run are as they were; a cell whose query
//! evaluated gets its relations back, and its next evaluation maintains
//! from that query's run.

use super::Session;
use crate::database::{Database, Slot};
use crate::error::{EngineError, Result};
use crate::prepared::CompiledProgram;
use crate::query::QueryPlan;
use spannerlib_core::{Relation, Schema, Value};
use spannerlib_dataframe::DataFrame;
use spannerlog_parser::{BodyElem, Query, Rule};
use std::borrow::Cow;
use std::sync::Arc;

/// One edit of a write ([`Session::write`]).
pub(super) enum Edit<'a> {
    Declare(Cow<'a, str>, Schema),
    /// An import (`Some`) or a removal (`None`), checked already.
    Put(&'a str, Option<Relation>),
    Fact(Cow<'a, str>, Vec<Value>),
    Rule(Rule),
    Query(Query),
}

/// What an edit displaced under a name, moved out, and the name's
/// generation before it.
type Undo<'a> = (Cow<'a, str>, u64, Displaced);

enum Displaced {
    Slot(Slot),
    /// A fact's row, and whether a rule had derived it before.
    Fact(Vec<Value>, bool),
}

impl Session {
    /// Applies, checks and, if refused, undoes one write; returns what
    /// its queries answered.
    pub(super) fn write<'a>(
        &mut self,
        edits: impl IntoIterator<Item = Edit<'a>>,
    ) -> Result<Vec<(Query, DataFrame)>> {
        let (rules, eval_seq) = (self.rules.len(), self.eval_seq);
        // The compilation before the write, once an edit dropped it.
        let (mut log, mut outputs, mut compiled) = (Vec::new(), Vec::new(), None);
        let mut edits = edits.into_iter().peekable();
        let result = (|| {
            while let Some(edit) = edits.next() {
                if self.touches(&edit) {
                    compiled.get_or_insert(self.compiled.take());
                }
                let undo = self.apply(edit, &mut outputs)?;
                // Only a step still to come can refuse the write.
                if edits.peek().is_some() || compiled.is_some() {
                    log.extend(undo);
                }
            }
            if compiled.is_some() {
                let program = self.program()?;
                self.rebase(Some(&program));
            }
            Ok(outputs)
        })();
        if result.is_err() {
            self.undo(rules, compiled, eval_seq == self.eval_seq, log);
        }
        result
    }

    /// Whether `edit` can change how the loaded rules compile: it adds a
    /// rule, or declares, newly imports or removes a name one uses.
    fn touches(&self, edit: &Edit) -> bool {
        match edit {
            Edit::Rule(_) => true,
            Edit::Declare(name, _) => self.rules_use(name),
            Edit::Put(name, put) => {
                !(put.is_some() && self.db.is_extensional(name)) && self.rules_use(name)
            }
            Edit::Fact(..) | Edit::Query(_) => false,
        }
    }

    /// Applies one edit, after the checks it can make alone, and returns
    /// what it displaced, if anything.
    fn apply<'a>(
        &mut self,
        edit: Edit<'a>,
        outputs: &mut Vec<(Query, DataFrame)>,
    ) -> Result<Option<Undo<'a>>> {
        let (name, slot) = match edit {
            Edit::Declare(name, schema) => {
                Database::check_name(&name)?;
                if self.db.is_extensional(&name) {
                    return Err(EngineError::DuplicateRelation(name.into_owned()));
                }
                (name, Slot(Some(Relation::new(schema)), true, None))
            }
            Edit::Put(name, relation) => (name.into(), Slot(relation, true, None)),
            Edit::Fact(name, row) => {
                self.check_fact(&name, &row)?;
                let generation = self.db.generation(&name);
                let derived = self.db_mut().assert_fact(&name, &row)?;
                return Ok(derived.map(|derived| (name, generation, Displaced::Fact(row, derived))));
            }
            Edit::Rule(rule) => {
                self.rules.push(rule);
                return Ok(None);
            }
            Edit::Query(query) => {
                let df = self.query(&QueryPlan::compile(&query))?;
                outputs.push((query, df));
                return Ok(None);
            }
        };
        let generation = self.db.generation(&name);
        let slot = self.db_mut().swap(&name, slot);
        Ok(Some((name, generation, Displaced::Slot(slot))))
    }

    /// Takes a refused write back out: the rules it added, the compilation
    /// it dropped and, from the log, what its edits displaced. One that
    /// ran no evaluation (`exact`) gets its generations back too, so the
    /// last run stands; one whose query evaluated leaves that run for the
    /// next to maintain from.
    fn undo(
        &mut self,
        rules: usize,
        compiled: Option<Option<Arc<CompiledProgram>>>,
        exact: bool,
        log: Vec<Undo>,
    ) {
        self.rules.truncate(rules);
        if let Some(compiled) = compiled {
            self.compiled = compiled;
        }
        if log.is_empty() {
            return;
        }
        let (db, mut facts) = (self.db_mut(), Vec::new());
        let mut log = log.into_iter().rev().peekable();
        while let Some((name, generation, displaced)) = log.next() {
            match displaced {
                Displaced::Slot(slot) => drop(db.swap(&name, slot)),
                Displaced::Fact(row, derived) => {
                    facts.push((row, derived));
                    // A relation's facts go back out together.
                    let next = log.peek().filter(|(next, ..)| *next == name);
                    if !next.is_some_and(|(_, _, d)| matches!(d, Displaced::Fact(..))) {
                        db.retract(&name, &std::mem::take(&mut facts));
                    }
                }
            }
            if exact {
                db.set_generation(&name, generation);
            }
        }
    }

    /// Whether a loaded rule has `name` as its head or as a body atom.
    fn rules_use(&self, name: &str) -> bool {
        self.rules.iter().any(|rule| {
            rule.head_predicate == name
                || rule.body.iter().any(|elem| {
                    matches!(elem, BodyElem::Relation(atom) | BodyElem::Negated(atom)
                        if atom.predicate == name)
                })
        })
    }

    /// Checks a fact against the schema of its relation.
    fn check_fact(&self, relation: &str, values: &[Value]) -> Result<()> {
        let Some(schema) = self.db.extensional_schema(relation) else {
            return Err(EngineError::UnknownRelation(format!(
                "{relation} (declare it with `new {relation}(…)` before adding facts)"
            )));
        };
        if values.len() != schema.arity() {
            return Err(EngineError::Arity {
                relation: relation.to_string(),
                expected: schema.arity(),
                actual: values.len(),
                line: 0,
            });
        }
        for (i, (v, t)) in values.iter().zip(schema.types()).enumerate() {
            if v.value_type() != *t {
                return Err(EngineError::FactType {
                    relation: relation.to_string(),
                    column: i,
                    expected: *t,
                    actual: v.value_type(),
                });
            }
        }
        Ok(())
    }
}
