//! The one evaluation loop. Every run takes the components in order, and
//! each turns the rows its inputs gained and lost since an *old* database
//! into the rows its heads gained and lost, which seed the components
//! after (`Seeds`). After a write the old database is the one the last
//! successful evaluation left (an `Arc` its snapshots already share), and
//! a moved input's changes are a diff of its old and new rows; a full run
//! starts from the empty database, over which every relation gained all
//! of its rows ([`FullReason`](crate::FullReason) says why). A relation's
//! gains are a range of its arena, its rows from an id on: relations only
//! grow during a run, and an input a write changed, or a head derived
//! again, is put in that order once.
//!
//! * **Inserts** take the standard delta form (Peterfreund et al.,
//!   *Recursive Programs for Document Spanners*): per atom whose relation
//!   gained rows, the rule with that atom reading them, each later atom
//!   that gained rows reading the rows it held before, and each earlier
//!   one all of its rows, so a derivation is made once. A negated atom
//!   seeds through the rows it lost. A variant one of whose later atoms
//!   held no row is skipped: a full run fires each rule once, and a rule
//!   that scans nothing fires only there. A recursive component then runs
//!   rounds of the same variants over what the round before appended.
//! * **Deletes** come first, where an atom of a non-recursive component
//!   lost rows (a negated one: gained them): delete-and-rederive (Gupta,
//!   Mumick & Subrahmanian, SIGMOD 1993) over-deletes, by the atom's key,
//!   every head that agrees with a lost row on the head variables the
//!   atom binds, with no IE call, and rederives what a `Cand(head) ⋈ body`
//!   plan still derives. An aggregating component something reached, and
//!   one whose deletes this does not serve — it is recursive, the atom
//!   binds no head variable, a key reaches most of the head — clear their
//!   heads and run the loop with every input gained.
//!
//! A run after a write keeps the rows the old run derived and calls IE
//! functions on what changed only, so it holds them to the paper's
//! contract (a pure function of their arguments). It takes every document
//! id for stable, and a compaction that breaks that is a `FullReason`.
//! It fires on the calling thread.

use crate::database::{cleared, Database};
use crate::error::Result;
use crate::eval::{Firing, Run, Scope};
use crate::optimizer::{IndexCache, TupleIndex};
use crate::plan::{HeadOut, PTerm, RulePlan, Source, Step};
use crate::session::driver::OrFull;
use crate::strata::Component;
use crate::EvalMode;
use rustc_hash::FxHashMap;
use spannerlib_core::Relation;
use std::ops::Range;
use std::sync::Arc;

/// The plans a run fires for one rule besides the rule itself, compiled
/// once per program.
#[derive(Debug)]
pub(crate) struct RuleVariants {
    /// `Cand(head) ⋈ body ⋈ Cand(head)`: the rule between two scans of
    /// candidate heads — the first binds the head variables a body scan
    /// binds, the last keeps the candidates among what the body derives.
    /// `None` for an aggregating rule, which is derived again.
    rederive: Option<RulePlan>,
    /// Per negated atom, by step: the rule with a positive scan of the
    /// atom, over the rows its relation lost, after its last step. The
    /// negation stays: with a `_` in it, a lost row need not make it
    /// hold.
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
        // A head variable only an IE output binds is no join key at step
        // 0: the plan would pair every candidate with every binding of
        // the rest of the body. It is read as `_` there.
        let scanned = |v: &usize| {
            let scans = rule.steps.iter().filter_map(|s| match s {
                Step::Scan { terms, .. } => Some(terms),
                _ => None,
            });
            scans.flatten().any(|t| *t == PTerm::Var(*v))
        };
        let term = |h: &HeadOut, key: bool| match h {
            HeadOut::Var(v) if !key || scanned(v) => Some(PTerm::Var(*v)),
            HeadOut::Var(_) => Some(PTerm::Wildcard),
            HeadOut::Const(c) => Some(PTerm::Const(c.clone())),
            HeadOut::Aggregate { .. } => None,
        };
        let relation = &rule.head_predicate;
        let rederive = (rule.head.iter().map(|h| term(h, true)))
            .collect::<Option<Vec<_>>>()
            .map(|terms| {
                let mut plan = with(
                    0,
                    Step::Scan {
                        relation: relation.clone(),
                        terms,
                    },
                );
                let terms = rule.head.iter().filter_map(|h| term(h, false)).collect();
                plan.steps.push(Step::Scan {
                    relation: relation.clone(),
                    terms,
                });
                plan
            });
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
            rederive,
            negated: negated.collect(),
            keys: keys.collect(),
        }
    };
    let rules = |c: &Component| c.rules.iter().map(of).collect();
    components.iter().map(rules).collect()
}

/// Every head of `component`, over the rows it holds now.
type Ends = FxHashMap<String, Range<usize>>;

fn head_ends(db: &Database, component: &Component) -> Ends {
    let heads = component.rules.iter().map(|r| &r.head_predicate);
    let len = |head: &str| db.relation(head).map_or(0, Relation::len);
    heads.map(|h| (h.clone(), 0..len(h))).collect()
}

/// What one run starts from: the database the last run left — or why it
/// starts from the empty one — and what every relation gained and lost
/// since, the inputs' first and then each head's.
pub(crate) struct Seeds {
    old: OrFull<Arc<Database>>,
    /// Per relation that gained rows: the row id they start at. Over the
    /// empty database every relation gained all of its rows.
    gained: FxHashMap<String, usize>,
    /// Per relation that lost rows: those rows.
    lost: FxHashMap<String, Relation>,
}

impl Seeds {
    /// What a run over `db` starts from: the database the last run left,
    /// with what each input that `moved` since gained and lost — or, `db`
    /// cleared of its derived rows, the empty one, and why.
    pub(crate) fn new(
        basis: OrFull<(Arc<Database>, Vec<&String>)>,
        db: &mut Arc<Database>,
    ) -> Seeds {
        let (gained, lost) = (FxHashMap::default(), FxHashMap::default());
        let (old, moved) = match basis {
            Ok(basis) => basis,
            Err(reason) => {
                cleared(db);
                let old = Err(reason);
                return Seeds { old, gained, lost };
            }
        };
        // `db` copied the old database's indexes along with its rows when
        // the write copied them; the old one hands them over.
        old.indexes.clear();
        let db = Arc::make_mut(db);
        let indexes = std::mem::take(&mut db.indexes);
        let (old_rels, old) = (old.relations(), Ok(Arc::clone(&old)));
        let mut seeds = Seeds { old, gained, lost };
        for name in moved {
            let (gained, lost) = diff(old_rels.get(name), db, name, &indexes);
            seeds.record(name, gained, lost);
        }
        db.indexes = indexes;
        seeds
    }

    /// Whether the run is full: from the empty database.
    pub(crate) fn is_full(&self) -> bool {
        self.old.is_err()
    }

    /// The mode the run reports, over `db`, before it runs.
    pub(crate) fn mode(&self, db: &Database) -> EvalMode {
        let len = |name: &String| db.relation(name).map_or(0, Relation::len);
        match self.old {
            Err(reason) => EvalMode::Full(reason),
            Ok(_) => EvalMode::Maintained {
                added: self.gained.iter().map(|(r, from)| len(r) - from).sum(),
                removed: self.lost.values().map(Relation::len).sum(),
            },
        }
    }

    /// The rows of `relation` gained since the old database.
    fn gained(&self, relation: &str) -> Option<Range<usize>> {
        let from = self.gained.get(relation).copied();
        from.or(self.is_full().then_some(0))
            .map(|from| from..usize::MAX)
    }

    /// Keeps what `relation` gained — its rows from `gained` on; over the
    /// empty database, all of them — and lost, for the components after.
    fn record(&mut self, relation: &str, gained: Option<usize>, lost: Option<Relation>) {
        if let Some(from) = gained.filter(|_| !self.is_full()) {
            self.gained.insert(relation.to_string(), from);
        }
        if let Some(lost) = lost {
            self.lost.insert(relation.to_string(), lost);
        }
    }

    /// Brings the heads of the scope's component, whose rules have
    /// `variants`, up to date, and records what they gained and lost.
    pub(crate) fn component(
        &mut self,
        run: &mut Run<'_>,
        db: &mut Database,
        scope: &mut Scope<'_>,
        variants: &[RuleVariants],
    ) -> Result<()> {
        let component = scope.component;
        let firings = inserts(
            component,
            variants,
            &|relation: &str| self.gained(relation),
            &|relation: &str| self.lost.get(relation),
            self.is_full(),
        );
        let reached = !firings.is_empty();
        let Some(over) = self.over_delete(db, component, variants, run.exec.indexes, reached)
        else {
            return self.recompute(run, db, scope, variants);
        };
        // A non-recursive component has one head, which holds the old
        // database's rows until the removal below.
        let head = &component.rules[0].head_predicate;
        let held = db.relation(head).ok().filter(|_| !over.is_empty());
        let over = held.map(|held| held.subset(over));
        if let Some(over) = &over {
            let new_ids = db.remove_derived(head, Some(over));
            run.exec.indexes.renumber(head, &new_ids);
            let rederive = variants.iter().enumerate().filter_map(|(ri, variants)| {
                let plan = variants.rederive.as_ref()?;
                let cands = [0, plan.steps.len() - 1].map(|i| (i, Source::seed(over)));
                Some((ri, plan, cands.to_vec()))
            });
            run.fire_round(db, scope, rederive.collect())?;
        }
        // What the heads hold now they held in the old database.
        let held = head_ends(db, component);
        derive(run, db, scope, variants, firings, held.clone())?;
        for (head, held) in held {
            let len = db.relation(&head).map_or(0, Relation::len);
            self.record(&head, Some(held.end).filter(|&end| end < len), None);
        }
        if let Some(over) = over {
            let new = db.relation(head).ok();
            let lacks =
                |id: &usize| new.is_none_or(|new| new.row_id(over.rows().row(*id)).is_none());
            let lost = over.subset((0..over.len()).filter(lacks));
            self.record(head, None, Some(lost).filter(|lost| !lost.is_empty()));
        }
        Ok(())
    }

    /// The ids of the heads a non-recursive component may have derived
    /// through rows that are gone — lost by a positive atom's relation,
    /// gained by a negated one's — in the old database's rows its head
    /// holds in `db`: by each such atom's key, every head that agrees with
    /// one of the rows on the head variables the atom binds. `None` when
    /// the component, `reached` by inserts or not, is derived again
    /// instead (see the module docs).
    fn over_delete(
        &self,
        db: &Database,
        component: &Component,
        variants: &[RuleVariants],
        indexes: &IndexCache,
        reached: bool,
    ) -> Option<Vec<usize>> {
        let aggregates = component.rules.iter().any(RulePlan::has_aggregation);
        if self.is_full() {
            return Some(Vec::new());
        } else if reached && aggregates {
            return None;
        }
        let head = &component.rules[0].head_predicate;
        let mut over = Vec::new();
        for (rule, variants) in component.rules.iter().zip(variants) {
            for (i, step) in rule.steps.iter().enumerate() {
                let (gone, terms) = match step {
                    Step::Scan { relation, terms } => (
                        self.lost.get(relation).map(|rel| (rel, 0..rel.len())),
                        terms,
                    ),
                    Step::Negation { relation, terms } => {
                        let rel = db.relation(relation).ok().zip(self.gained.get(relation));
                        (rel.map(|(rel, &from)| (rel, from..rel.len())), terms)
                    }
                    _ => continue,
                };
                let Some(gone) = gone else { continue };
                // A relation of another arity has no key: the component
                // is derived again, and its firing says so.
                let key = variants.keys.iter().find(|(at, _)| *at == i);
                let key = key.filter(|_| gone.0.schema().arity() == terms.len());
                let (Some((_, key)), false) = (key, component.recursive || aggregates) else {
                    return None;
                };
                let Ok(held) = db.relation(head) else {
                    continue;
                };
                let heads = by_key(key, gone, head, held, indexes);
                if heads.len() > held.len() / 2 {
                    return None;
                }
                over.extend(heads);
            }
        }
        Some(over)
    }

    /// Clears the heads of the scope's component, derives them again
    /// from their inputs — the same loop, every input gained — and
    /// records what they gained and lost since the old database.
    fn recompute(
        &mut self,
        run: &mut Run<'_>,
        db: &mut Database,
        scope: &mut Scope<'_>,
        variants: &[RuleVariants],
    ) -> Result<()> {
        let component = scope.component;
        let heads: Vec<&String> = component.rules.iter().map(|r| &r.head_predicate).collect();
        for head in &heads {
            let new_ids = db.remove_derived(head, None);
            run.exec.indexes.renumber(head, &new_ids);
        }
        let firings = inserts(
            component,
            variants,
            &|_| Some(Source::ALL.range),
            &|_| None,
            true,
        );
        let ends = head_ends(db, component);
        derive(run, db, scope, variants, firings, ends)?;
        let old = self.old.as_ref().ok().cloned();
        for head in heads {
            let old = old.as_ref().and_then(|old| old.relations().get(head));
            let (gained, lost) = diff(old, db, head, run.exec.indexes);
            self.record(head, gained, lost);
        }
        Ok(())
    }
}

/// The insert firings of one round over the rules of `component`, in the
/// standard delta form: per atom whose relation `gained` rows — a negated
/// atom's `lost` them — the rule with that atom reading those rows and
/// every later atom that gained rows reading only the rows it held
/// before. Any order of the atoms makes each derivation once; this one
/// restricts the atoms a body probes by the keys of those before, which
/// the planner can run ahead of the IE calls they would otherwise feed. A
/// variant where one of those holds no row is skipped. A rule that scans
/// nothing fires only `from_empty`: from the empty database.
fn inserts<'p>(
    component: &'p Component,
    variants: &'p [RuleVariants],
    gained: &dyn Fn(&str) -> Option<Range<usize>>,
    lost: &dyn Fn(&str) -> Option<&'p Relation>,
    from_empty: bool,
) -> Vec<Firing<'p>> {
    let mut firings = Vec::new();
    for (ri, (rule, variants)) in component.rules.iter().zip(variants).enumerate() {
        // The rows each later atom that gained rows held before.
        let mut held: Vec<(usize, Source<'p>)> = Vec::new();
        let mut scans = false;
        for (i, step) in rule.steps.iter().enumerate().rev() {
            let (plan, at, rows) = match step {
                Step::Scan { relation, .. } => {
                    scans = true;
                    let Some(rows) = gained(relation) else {
                        continue;
                    };
                    (rule, i, Source::rows(rows))
                }
                Step::Negation { relation, .. } => {
                    let plan = variants.negated.iter().find(|(at, _)| *at == i);
                    let (Some(rows), Some((_, plan))) = (lost(relation), plan) else {
                        continue;
                    };
                    (plan, rule.steps.len(), Source::seed(rows))
                }
                _ => continue,
            };
            if held.iter().all(|(_, source)| !source.range.is_empty()) {
                let sources = held.iter().cloned().chain([(at, rows.clone())]);
                firings.push((ri, plan, sources.collect()));
            }
            if rows.seed.is_none() {
                held.push((i, Source::rows(0..rows.range.start)));
            }
        }
        if !scans && from_empty {
            firings.push((ri, rule, Vec::new()));
        }
    }
    firings
}

/// Fires `firings`, the round the run's changes open, and — in a
/// recursive component — the delta loop after it: rounds of the
/// variants over what the round before appended to each head past
/// `ends`, until a round appends nothing.
fn derive(
    run: &mut Run<'_>,
    db: &mut Database,
    scope: &mut Scope<'_>,
    variants: &[RuleVariants],
    firings: Vec<Firing<'_>>,
    mut deltas: Ends,
) -> Result<()> {
    run.fire_round(db, scope, firings)?;
    if !scope.component.recursive {
        return Ok(());
    }
    loop {
        for (head, delta) in &mut deltas {
            *delta = delta.end..db.relation(head).map_or(0, Relation::len);
        }
        if deltas.values().all(Range::is_empty) {
            return Ok(());
        }
        let delta = |relation: &str| deltas.get(relation).cloned();
        let firings = inserts(scope.component, variants, &delta, &|_| None, false);
        run.fire_round(db, scope, firings)?;
    }
}

/// What `name` gained and lost since `old`, over its rows in `db`, which
/// this puts in the order that makes its gained rows the last (forgetting
/// its `indexes` if that moves a row): the id they start at, if any, and
/// the rows it lost, if any.
fn diff(
    old: Option<&Relation>,
    db: &mut Database,
    name: &str,
    indexes: &IndexCache,
) -> (Option<usize>, Option<Relation>) {
    let mut kept = vec![false; old.map_or(0, Relation::len)];
    let new = db.relation(name).ok();
    let ids = 0..new.map_or(0, Relation::len);
    let (held, gained): (Vec<usize>, Vec<usize>) = ids.partition(|&id| {
        let at = old
            .zip(new)
            .and_then(|(old, new)| old.row_id(new.rows().row(id)));
        at.inspect(|&at| kept[at] = true).is_some()
    });
    let from = held.len();
    if gained.first().is_some_and(|&id| id < from) {
        db.reorder(name, held.into_iter().chain(gained.iter().copied()));
        indexes.forget(name);
    }
    let lost = old.map(|old| old.subset((0..old.len()).filter(|&id| !kept[id])));
    let gained = (!gained.is_empty()).then_some(from);
    (gained, lost.filter(|lost| !lost.is_empty()))
}

/// The over-delete by `key`, an atom's, of the `gone` rows of its
/// relation: the ids of every head of `held` — stored as `head`, indexed
/// by `indexes` — that agrees with one of the rows on the head variables
/// the atom binds, which is all a derivation through the rows can have
/// derived, found without calling an IE function again.
fn by_key(
    key: &[(usize, usize)],
    (gone, range): (&Relation, Range<usize>),
    head: &str,
    held: &Relation,
    indexes: &IndexCache,
) -> Vec<usize> {
    let head_cols: Vec<usize> = key.iter().map(|&(_, h)| h).collect();
    let atom_cols: Vec<usize> = key.iter().map(|&(c, _)| c).collect();
    let index = indexes.index(head, held, &head_cols);
    let rows = gone.rows();
    let keys = TupleIndex::build(rows, range, &atom_cols);
    let firsts = (0..keys.len()).map(|g| rows.row(keys.group(g)[0]));
    let found = firsts.map(|row| index.get(held.rows(), atom_cols.iter().map(|&c| &row[c])));
    found.flatten().copied().collect()
}
