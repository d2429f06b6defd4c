//! Incremental maintenance: after a write, a session updates
//! the derived relations it holds from the input rows that changed,
//! instead of dropping them and deriving everything again.
//!
//! The session keeps the database as of its last successful evaluation
//! — the *old* database, an `Arc` its snapshots already share — and its
//! evaluation driver decides when to maintain from it. The rows each
//! moved input gained and lost — a diff of its old and new rows, so an
//! identical re-import changes nothing — seed the update. Every
//! component, in evaluation order, turns the changes of what it reads
//! into the changes of its heads, which seed the components that read
//! those; a component no seed reaches is left alone.
//!
//! * A non-recursive component runs delete-and-rederive (DRed; Gupta,
//!   Mumick & Subrahmanian, SIGMOD 1993) over *seeded variants*: a rule
//!   with one of its atoms reading the rows that changed. A negated atom
//!   is a seed like a positive one with the roles swapped — rows it gains
//!   delete, rows it loses insert — and its variant joins a positive scan
//!   of them to the rule, negation included.
//!   1. Over-delete: an atom that lost rows and binds head variables
//!      deletes every head that agrees with a lost row there — a
//!      superset of what a derivation through the row can have derived,
//!      found by index lookups without calling an IE function again.
//!   2. Those heads leave the relation.
//!   3. Rederive: the ones a `Cand(head) ⋈ body` plan still derives over
//!      the new database come back.
//!   4. Insert: the variants whose atom reads what it gained, every other
//!      atom reading the new database, add the new derivations.
//! * A recursive component that only gained input rows continues the
//!   semi-naive delta loop from its seeded variants (Peterfreund et al.,
//!   *Recursive Programs for Document Spanners*, for spanner programs).
//! * An aggregating component, a recursive one that lost input rows, one
//!   with an atom that lost rows and binds no head variable, and one a key
//!   would over-delete most of derive their heads again from their
//!   maintained inputs.
//!
//! A maintained run fires every rule over the new database only. It still
//! calls IE functions — to rederive, and to insert what a negated atom's
//! lost rows let through — and keeps the rows the old run derived, so it
//! holds every IE function to the paper's contract: a pure function of
//! its arguments, so a second call answers what the first did. It takes
//! every document id for stable, and [`FullReason`](crate::FullReason)
//! names each case where that, or anything else it relies on, does not
//! hold. A maintained run fires on the calling thread.

use crate::database::Database;
use crate::error::Result;
use crate::eval::{self, EvalCtx, EvalStats, Firing, Run, Scope};
use crate::optimizer::{IndexCache, TupleIndex};
use crate::plan::{ExecCtx, HeadOut, PTerm, RulePlan, Step};
use crate::prepared::CompiledProgram;
use crate::strata::Component;
use crate::EvalMode;
use rustc_hash::FxHashMap;
use spannerlib_core::{Relation, Value};
use spannerlib_trace::RunTrace;
use std::ops::Range;
use std::sync::Arc;

/// The plans maintenance fires for one rule besides the rule itself,
/// compiled once per program.
#[derive(Debug)]
pub(crate) struct RuleVariants {
    /// `Cand(head) ⋈ body`: the rule behind a scan of candidate heads at
    /// step 0, which binds the head variables a body scan binds. `None`
    /// for an aggregating rule, which is recomputed.
    rederive: Option<RulePlan>,
    /// Per negated atom, by step: the rule with a positive scan of the
    /// atom, over the rows its relation gained or lost, after its last
    /// step. The negation stays: with a `_` in it, a lost row need not
    /// make it hold, nor a gained one make it fail.
    negated: Vec<(usize, RulePlan)>,
    /// Per atom that binds head variables, by step: `(atom column, head
    /// column)` for each. A derivation through a row of the atom derives
    /// a head that agrees with the row there.
    keys: Vec<(usize, Vec<(usize, usize)>)>,
}

/// The variants of every rule of `components`, in their order.
pub(crate) fn variants(components: &[Component]) -> Vec<Vec<RuleVariants>> {
    let of = |rule: &RulePlan| {
        // A scan needs nothing bound: the steps stay in a safe order.
        let with = |at: usize, scan: Step| {
            let mut plan = rule.clone();
            plan.steps.insert(at, scan);
            plan
        };
        // A head variable only an IE output binds is no join key: the
        // plan would pair every candidate with every binding of the rest
        // of the body. Reading it as `_` rederives, instead, every head
        // the candidates' other columns reach — more than the candidates,
        // but all of it derivable.
        let scanned = |v: &usize| {
            let scans = rule.steps.iter().filter_map(|s| match s {
                Step::Scan { terms, .. } => Some(terms),
                _ => None,
            });
            scans.flatten().any(|t| *t == PTerm::Var(*v))
        };
        let head: Option<Vec<PTerm>> = (rule.head.iter())
            .map(|h| match h {
                HeadOut::Var(v) if scanned(v) => Some(PTerm::Var(*v)),
                HeadOut::Var(_) => Some(PTerm::Wildcard),
                HeadOut::Const(c) => Some(PTerm::Const(c.clone())),
                HeadOut::Aggregate { .. } => None,
            })
            .collect();
        let relation = rule.head_predicate.clone();
        let negated = (rule.steps.iter().enumerate()).filter_map(|(i, step)| match step {
            Step::Negation { relation, terms } => {
                let (relation, terms) = (relation.clone(), terms.clone());
                Some((i, with(rule.steps.len(), Step::Scan { relation, terms })))
            }
            _ => None,
        });
        let head_col = |t: &PTerm| {
            (rule.head.iter())
                .position(|h| matches!((h, t), (HeadOut::Var(h), PTerm::Var(v)) if h == v))
        };
        let keys = (rule.steps.iter().enumerate()).filter_map(|(i, step)| match step {
            Step::Scan { terms, .. } | Step::Negation { terms, .. } => {
                let cols = terms.iter().enumerate();
                let cols: Vec<_> = cols.filter_map(|(c, t)| Some((c, head_col(t)?))).collect();
                (!cols.is_empty()).then_some((i, cols))
            }
            _ => None,
        });
        RuleVariants {
            rederive: head.map(|terms| with(0, Step::Scan { relation, terms })),
            negated: negated.collect(),
            keys: keys.collect(),
        }
    };
    let rules = |c: &Component| c.rules.iter().map(of).collect();
    components.iter().map(rules).collect()
}

/// The rows a relation gained and lost since the last evaluation.
#[derive(Debug)]
struct Change {
    added: Relation,
    removed: Relation,
}

impl Change {
    /// `None` when nothing changed.
    fn of(added: Relation, removed: Relation) -> Option<Change> {
        (!added.is_empty() || !removed.is_empty()).then_some(Change { added, removed })
    }

    /// What `new` holds and `old` lacks, and the reverse — hashing each
    /// row of `new` once, and none of `old`.
    fn between(old: Option<&Relation>, new: Option<&Relation>) -> Option<Change> {
        let mut kept = vec![false; old.map_or(0, Relation::len)];
        let mut lacks = |row: &[Value]| match old.and_then(|old| old.row_id(row)) {
            Some(id) => {
                kept[id] = true;
                false
            }
            None => true,
        };
        let added = new.map_or_else(Relation::default, |new| {
            new.subset((0..new.len()).filter(|&id| lacks(new.rows().row(id))))
        });
        let removed = old.map_or_else(Relation::default, |old| {
            old.subset((0..old.len()).filter(|&id| !kept[id]))
        });
        Change::of(added, removed)
    }
}

/// The rows of `rel` with ids in `ids` that `other` lacks.
fn missing(rel: Option<&Relation>, ids: Range<usize>, other: Option<&Relation>) -> Relation {
    let Some(rel) = rel else {
        return Relation::default();
    };
    let lacks = |id: &usize| other.is_none_or(|other| other.row_id(rel.rows().row(*id)).is_none());
    rel.subset(ids.filter(lacks))
}

/// What a maintained evaluation starts from: the database the last one
/// left and what each moved input gained and lost since.
pub(crate) struct Seeds {
    old: Arc<Database>,
    changes: FxHashMap<String, Change>,
}

impl Seeds {
    /// What each input in `moved` gained and lost between `old`, the
    /// database the last run left, and `db`.
    pub(crate) fn new(old: Arc<Database>, db: &Database, moved: Vec<&String>) -> Seeds {
        let changes = moved.into_iter().filter_map(|name| {
            let change = Change::between(old.relations().get(name), db.relation(name).ok());
            Some((name.clone(), change?))
        });
        Seeds {
            changes: changes.collect(),
            old,
        }
    }

    /// The mode the maintained run reports.
    pub(crate) fn mode(&self) -> EvalMode {
        let count =
            |side: fn(&Change) -> &Relation| self.changes.values().map(|c| side(c).len()).sum();
        EvalMode::Maintained {
            added: count(|c| &c.added),
            removed: count(|c| &c.removed),
        }
    }

    /// Brings the derived relations of `db` — the old database's, under
    /// the inputs `db` holds now — up to date under `program`.
    pub(crate) fn run(
        self,
        db: &mut Database,
        program: &CompiledProgram,
        ctx: &EvalCtx<'_>,
        trace: &mut RunTrace,
    ) -> Result<EvalStats> {
        // `db` copied the old database's indexes along with its rows when
        // the write copied them; the old one hands them over.
        self.old.indexes.clear();
        let maintenance = Maintenance {
            old: &self.old,
            variants: &program.variants,
            changes: self.changes,
        };
        // Firings over a few changed rows: a shard's fixed cost (a thread,
        // a trace fork and a batch per range) outweighs what another lane
        // saves them — on the two-core reference host even the insertions
        // of 24 new notes run faster on one.
        let ctx = EvalCtx { workers: 0, ..*ctx };
        eval::run(db, &program.components, &ctx, trace, Some(maintenance))
    }
}

/// The state of one maintained evaluation.
pub(crate) struct Maintenance<'a> {
    /// The database the run updates from, read through its own indexes.
    old: &'a Database,
    variants: &'a [Vec<RuleVariants>],
    /// What every input and every head maintained so far gained and
    /// lost: the seeds of the components after.
    changes: FxHashMap<String, Change>,
}

impl Maintenance<'_> {
    /// Maintains the scope's component and records what its heads
    /// gained and lost.
    pub(crate) fn component(
        &mut self,
        run: &mut Run<'_>,
        db: &mut Database,
        scope: &mut Scope<'_>,
    ) -> Result<()> {
        let component = scope.component;
        let losses = self.seeded(scope.index, component, false);
        let gains = self.seeded(scope.index, component, true);
        if losses.is_empty() && gains.is_empty() {
            return Ok(());
        }
        let gains = gains.iter().map(|s| s.firing(&run.exec)).collect();
        let recompute = component.recursive && !losses.is_empty();
        if recompute || component.rules.iter().any(RulePlan::has_aggregation) {
            return self.recompute(run, db, scope);
        }
        if component.recursive {
            let ends = eval::head_ends(db, scope);
            run.fire_round(db, scope, gains)?;
            run.delta_rounds(db, scope, ends.clone())?;
            for (head, Range { end, .. }) in ends {
                let rel = db.relation(&head).ok();
                let grown = end..rel.map_or(end, Relation::len);
                self.record(
                    &head,
                    Change::of(missing(rel, grown, None), Relation::default()),
                );
            }
            return Ok(());
        }

        // Delete and rederive; a non-recursive component has one head,
        // which holds its old rows until the removal below. A lost row
        // over-deletes by key: every head that agrees with it on the head
        // variables its atom binds. An atom that binds none would have to
        // fire the rule over the old database, and when a key reaches most
        // of the head, so would the rederivation: deriving the head again
        // costs less.
        let head = &component.rules[0].head_predicate;
        let old_head = db.relation(head).ok();
        let most = old_head.map_or(0, Relation::len) / 2;
        let mut over = Vec::new();
        for seeded in &losses {
            let Some(key) = seeded.key else {
                return self.recompute(run, db, scope);
            };
            let Some(old) = old_head else { continue };
            let heads = seeded.by_key(key, head, old, run.exec.indexes);
            if heads.len() > most {
                return self.recompute(run, db, scope);
            }
            over.extend(heads);
        }
        let over = old_head.map(|old| old.subset(over));
        let over = over.as_ref().filter(|over| !over.is_empty());
        if let Some(over) = over {
            let new_ids = db.remove_derived(head, Some(over));
            run.exec.indexes.renumber(head, &new_ids);
        }
        // What the head holds past `kept` is rederived or inserted — and
        // a rederivation may reach heads the old database lacked.
        let kept = db.relation(head).map_or(0, Relation::len);
        if let Some(over) = over {
            let rederive = self.variants[scope.index].iter().enumerate();
            let rederive = rederive.filter_map(|(ri, variants)| {
                let exec = ExecCtx {
                    delta: None,
                    seed: Some((0, over)),
                    ..run.exec
                };
                Some((ri, variants.rederive.as_ref()?, exec))
            });
            let rederive = rederive.collect();
            run.fire_round(db, scope, rederive)?;
        }
        run.fire_round(db, scope, gains)?;
        let (old, new) = (self.old.relations().get(head), db.relation(head).ok());
        let added = missing(new, kept..new.map_or(0, Relation::len), old);
        let removed = missing(over, 0..over.map_or(0, Relation::len), new);
        self.record(head, Change::of(added, removed));
        Ok(())
    }

    /// The seeded variants of the rules of `component` — the one at
    /// `index`: per atom reading a changed relation, the plan with a scan
    /// of what it lost or, for `gains`, what it gained (the other way
    /// round for a negated atom).
    fn seeded<'s>(
        &'s self,
        index: usize,
        component: &'s Component,
        gains: bool,
    ) -> Vec<Seeded<'s>> {
        let mut seeded = Vec::new();
        let rules = component.rules.iter().zip(&self.variants[index]);
        for (ri, (rule, variants)) in rules.enumerate() {
            for (i, step) in rule.steps.iter().enumerate() {
                let (relation, terms, plan, at, positive) = match step {
                    Step::Scan { relation, terms } => (relation, terms, rule, i, true),
                    Step::Negation { relation, terms } => {
                        let negated = variants.negated.iter().find(|(at, _)| *at == i);
                        let Some((_, plan)) = negated else { continue };
                        (relation, terms, plan, rule.steps.len(), false)
                    }
                    _ => continue,
                };
                let Some(change) = self.changes.get(relation) else {
                    continue;
                };
                let rows = match positive == gains {
                    true => &change.added,
                    false => &change.removed,
                };
                // A relation of another arity has no key: the component is
                // derived again, and its firing says so.
                let key = variants.keys.iter().find(|(at, _)| *at == i);
                let key = key.filter(|_| rows.schema().arity() == terms.len());
                if !rows.is_empty() {
                    let key = key.map(|(_, cols)| &cols[..]);
                    seeded.push(Seeded {
                        rule: ri,
                        plan,
                        at,
                        rows,
                        key,
                    });
                }
            }
        }
        seeded
    }

    /// Derives the heads of the scope's component again from their
    /// maintained inputs and records what they gained and lost.
    fn recompute(
        &mut self,
        run: &mut Run<'_>,
        db: &mut Database,
        scope: &mut Scope<'_>,
    ) -> Result<()> {
        let heads = eval::head_ends(db, scope);
        for head in heads.keys() {
            let new_ids = db.remove_derived(head, None);
            run.exec.indexes.renumber(head, &new_ids);
        }
        run.seminaive(db, scope)?;
        for head in heads.keys() {
            let old = self.old.relations().get(head);
            self.record(head, Change::between(old, db.relation(head).ok()));
        }
        Ok(())
    }

    /// Keeps what `head` gained and lost for the components after.
    fn record(&mut self, head: &str, change: Option<Change>) {
        if let Some(change) = change {
            self.changes.insert(head.to_string(), change);
        }
    }
}

/// One atom of a rule over the rows its relation gained or lost.
struct Seeded<'s> {
    /// The rule's index in its component.
    rule: usize,
    /// The plan whose scan at step `at` reads `rows`.
    plan: &'s RulePlan,
    at: usize,
    rows: &'s Relation,
    /// `(atom column, head column)` per head variable the atom binds.
    key: Option<&'s [(usize, usize)]>,
}

impl<'s> Seeded<'s> {
    /// The variant's firing under `exec`.
    fn firing(&self, exec: &ExecCtx<'s>) -> Firing<'s, 's> {
        let exec = ExecCtx {
            delta: None,
            seed: Some((self.at, self.rows)),
            ..*exec
        };
        (self.rule, self.plan, exec)
    }

    /// The over-delete by `key`, the atom's: the ids of every head of
    /// `old` — stored as `head`, indexed by `indexes` — that agrees with
    /// one of the rows on the head variables the atom binds, which is all
    /// a derivation through the rows can have derived, found without
    /// calling an IE function again.
    fn by_key(
        &self,
        key: &[(usize, usize)],
        head: &str,
        old: &Relation,
        indexes: &IndexCache,
    ) -> Vec<usize> {
        let head_cols: Vec<usize> = key.iter().map(|&(_, h)| h).collect();
        let atom_cols: Vec<usize> = key.iter().map(|&(c, _)| c).collect();
        let index = indexes.index(head, old, &head_cols);
        let rows = self.rows.rows();
        let keys = TupleIndex::build(rows, 0..rows.len(), &atom_cols);
        let firsts = (0..keys.len()).map(|g| rows.row(keys.group(g)[0]));
        let found = firsts.map(|row| index.get(old.rows(), atom_cols.iter().map(|&c| &row[c])));
        found.flatten().copied().collect()
    }
}
