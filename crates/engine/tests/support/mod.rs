//! A reference evaluator for Spannerlog programs, for tests only: the
//! paper's "naive bottom-up evaluation method extended to include IE
//! clauses" (§3.1) and nothing else. Relations are `BTreeSet`s of rows,
//! strata come from its own pass over the dependency graph, each stratum
//! loops until a round derives nothing new, a rule body is a nested loop
//! in a safe order, an IE function is called once per binding row (no
//! grouping, no memo), and the builtin aggregates fold here. Its speed
//! does not matter. It shares only the parser's AST, `Value`,
//! `DocumentStore` and a `Registry`'s functions with the engine, so a
//! bug in the engine's planning, stratification, evaluation, storage or
//! query code cannot hide in it too. Its document ids are its own:
//! compare through [`canonical`], which names a span by its document's
//! text and its offsets.

#![allow(dead_code)]

use spannerlib_core::{DocumentStore, Rows, Value};
use spannerlog_engine::{IeContext, IeRows, Registry, SharedDocs};
use spannerlog_parser::{
    parse_program, Atom, BodyElem, CmpOp, Constant, HeadTerm, IeAtom, Rule, Statement, Term,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// A relation: a set of rows; a program's, by name.
pub type Rel = BTreeSet<Vec<Value>>;
type Relations = BTreeMap<String, Rel>;

/// A binding of a rule's variables.
type Env = BTreeMap<String, Value>;

type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// What a program derived: every relation it names, and the documents
/// its spans point into.
pub struct Model {
    pub relations: Relations,
    pub docs: SharedDocs,
}

impl Model {
    /// The rows of `name` as [`canonical`] writes them (none when the
    /// program never names it).
    pub fn canonical(&self, name: &str) -> BTreeSet<Vec<String>> {
        let rows = self.relations.get(name).into_iter().flatten();
        canonical(rows.map(Vec::as_slice), &self.docs.read())
    }
}

/// Rows with every span written as its document's text and its offsets,
/// every other value as itself: comparable across two document stores.
pub fn canonical<'r>(
    rows: impl IntoIterator<Item = &'r [Value]>,
    docs: &DocumentStore,
) -> BTreeSet<Vec<String>> {
    let cell = |v: &Value| match v {
        Value::Span(s) => {
            let text = docs.resolve(s.doc).expect("a span names a live document");
            format!("Span({text:?}[{}..{}])", s.start, s.end)
        }
        other => format!("{other:?}"),
    };
    let rows = rows.into_iter();
    rows.map(|row| row.iter().map(cell).collect()).collect()
}

/// Evaluates `program` over `inputs` — `(relation, rows)` pairs, which
/// the program's own facts join — calling the functions of `registry`.
pub fn evaluate(
    program: &str,
    inputs: &[(&str, Vec<Vec<Value>>)],
    registry: &Registry,
) -> Res<Model> {
    let rel =
        |(name, rows): &(&str, Vec<Vec<Value>>)| (name.to_string(), Rel::from_iter(rows.clone()));
    let mut relations: Relations = inputs.iter().map(rel).collect();
    let mut rules = Vec::new();
    for statement in parse_program(program)?.statements {
        match statement {
            Statement::Declaration(d) => drop(relations.entry(d.name).or_default()),
            Statement::Fact(f) => {
                let row = f.values.iter().map(constant).collect();
                relations.entry(f.predicate).or_default().insert(row);
            }
            Statement::Rule(r) => {
                relations.entry(r.head_predicate.clone()).or_default();
                rules.push(r);
            }
            Statement::Query(_) => {}
        }
    }
    let docs = SharedDocs::default();
    let eval = Eval { registry, docs };
    for stratum in strata(&rules, &relations)? {
        // Until a round over the stratum's rules derives nothing new.
        let mut changed = true;
        while changed {
            changed = false;
            for rule in &stratum {
                let rows = eval.rule(rule, &relations)?;
                let head = relations.entry(rule.head_predicate.clone()).or_default();
                rows.into_iter().for_each(|row| changed |= head.insert(row));
            }
        }
    }
    let docs = eval.docs;
    Ok(Model { relations, docs })
}

/// The rules by stratum, lowest first: a head sits in a stratum at
/// least as high as every relation its rules read, and higher than one
/// they negate or aggregate over.
fn strata<'r>(rules: &'r [Rule], relations: &Relations) -> Res<Vec<Vec<&'r Rule>>> {
    let mut level: BTreeMap<&str, usize> = BTreeMap::new();
    // Levels settle within one pass per rule, or climb forever through
    // a cycle of negation or aggregation.
    for _ in 0..=rules.len() + 1 {
        let mut changed = false;
        for rule in rules {
            for elem in &rule.body {
                let (atom, strict) = match elem {
                    BodyElem::Relation(a) => (a, rule.has_aggregation()),
                    BodyElem::Negated(a) => (a, true),
                    _ => continue,
                };
                if relations.contains_key(&atom.predicate) {
                    let read = level.get(atom.predicate.as_str()).copied().unwrap_or(0);
                    let head = level.entry(&rule.head_predicate).or_insert(0);
                    changed |= *head < read + usize::from(strict);
                    *head = (*head).max(read + usize::from(strict));
                }
            }
        }
        if !changed {
            let mut strata = vec![Vec::new(); level.values().max().map_or(1, |top| top + 1)];
            for r in rules {
                strata[level.get(r.head_predicate.as_str()).copied().unwrap_or(0)].push(r);
            }
            return Ok(strata);
        }
    }
    Err("the program is not stratifiable".into())
}

/// What firing a rule needs besides the relations: the functions, and
/// the documents their spans point into.
struct Eval<'a> {
    registry: &'a Registry,
    docs: SharedDocs,
}

/// One body element as the nested loop runs it.
enum Elem<'r> {
    Scan(&'r Atom),
    Not(&'r Atom),
    /// An IE call: a written one, or a relation-style atom over a
    /// function (a filter: every term an input, no output).
    Call(&'r str, &'r [Term], &'r [Term]),
    Compare(&'r Term, CmpOp, &'r Term),
}

impl Eval<'_> {
    /// Every head row `rule` derives from `relations`.
    fn rule(&self, rule: &Rule, relations: &Relations) -> Res<Rel> {
        let (body, mut envs) = (safe_order(rule, relations)?, Vec::new());
        self.walk(&body, relations, Env::new(), &mut envs)?;
        // Per binding, each head column's value (an aggregate's variable's).
        let mut projections = Rel::new();
        for env in &envs {
            let row = rule.head_terms.iter().map(|h| match h {
                HeadTerm::Term(t) => bound(t, env),
                HeadTerm::Aggregate { var, .. } => bound(&Term::Variable(var.clone()), env),
            });
            projections.insert(row.collect::<Res<_>>()?);
        }
        if !rule.has_aggregation() {
            return Ok(projections);
        }
        // Group the distinct projections by their plain columns.
        let is_key = |c: &usize| matches!(rule.head_terms[*c], HeadTerm::Term(_));
        let mut groups: BTreeMap<Vec<Value>, Vec<Vec<Value>>> = BTreeMap::new();
        for row in projections {
            let key = (0..row.len()).filter(is_key).map(|c| row[c].clone());
            groups.entry(key.collect()).or_default().push(row);
        }
        let fold = |members: &Vec<Vec<Value>>| {
            let column = |(c, h): (usize, &HeadTerm)| match h {
                HeadTerm::Term(_) => Ok(members[0][c].clone()),
                HeadTerm::Aggregate {
                    func, conversions, ..
                } => self.aggregate(
                    func,
                    conversions,
                    members.iter().map(|m| m[c].clone()).collect(),
                ),
            };
            rule.head_terms.iter().enumerate().map(column).collect()
        };
        groups.values().map(fold).collect()
    }

    /// Extends `env` through `body` in every way the relations and
    /// functions allow, collecting the complete bindings into `out`.
    fn walk(&self, body: &[Elem<'_>], rels: &Relations, env: Env, out: &mut Vec<Env>) -> Res<()> {
        let Some((elem, rest)) = body.split_first() else {
            out.push(env);
            return Ok(());
        };
        match elem {
            Elem::Scan(atom) => {
                for row in &rels[&atom.predicate] {
                    if let Some(env) = unify(&atom.terms, row, &env)? {
                        self.walk(rest, rels, env, out)?;
                    }
                }
            }
            Elem::Not(atom) => {
                let mut matched = false;
                for row in rels.get(&atom.predicate).into_iter().flatten() {
                    matched |= unify(&atom.terms, row, &env)?.is_some();
                }
                if !matched {
                    self.walk(rest, rels, env, out)?;
                }
            }
            Elem::Call(function, inputs, outputs) => {
                let args = inputs
                    .iter()
                    .map(|t| bound(t, &env))
                    .collect::<Res<Vec<_>>>()?;
                let f = self.registry.ie(function)?;
                let mut rows = Rows::new(outputs.len());
                let mut sink = IeRows::new(function, &mut rows);
                let called = f.call(&args, &mut sink, &mut IeContext::new(function, &self.docs));
                sink.finish(called)?;
                for row in rows.iter() {
                    if let Some(env) = unify(outputs, row, &env)? {
                        self.walk(rest, rels, env, out)?;
                    }
                }
            }
            Elem::Compare(left, op, right) => {
                if compare(&bound(left, &env)?, *op, &bound(right, &env)?)? {
                    self.walk(rest, rels, env, out)?;
                }
            }
        }
        Ok(())
    }

    /// Folds one group's values of an aggregate column: converted, then
    /// sorted, then folded — the builtins here, any other function
    /// through the registry.
    fn aggregate(&self, func: &str, convs: &[String], mut values: Vec<Value>) -> Res<Value> {
        for name in convs.iter().rev() {
            let ctx = IeContext::new(name, &self.docs);
            let conversion = self.registry.conversion(name)?;
            let converted = values.iter().map(|v| conversion.convert(v, &ctx));
            values = converted.collect::<Result<_, _>>()?;
        }
        values.sort();
        let floats = || -> Res<f64> {
            let float = |v: &Value| match v {
                Value::Int(i) => Ok(*i as f64),
                Value::Float(f) => Ok(*f),
                other => Err(format!("{func} over {other:?}")),
            };
            Ok(values.iter().map(float).sum::<Result<f64, _>>()?)
        };
        let texts = |sep: &str| {
            let text = |v: &Value| v.as_str().map_or_else(|| v.to_string(), str::to_string);
            let mut texts: Vec<String> = values.iter().map(text).collect();
            texts.sort();
            Value::str(texts.join(sep))
        };
        let ints = values.iter().map(Value::as_int);
        Ok(match func {
            "count" => Value::Int(values.len() as i64),
            "sum" if ints.clone().all(|i| i.is_some()) => {
                let total: i128 = ints.flatten().map(i128::from).sum();
                Value::Int(i64::try_from(total).map_err(|_| format!("sum {total} overflows"))?)
            }
            "sum" => Value::Float(floats()?),
            "avg" => Value::Float(floats()? / values.len() as f64),
            "min" => values[0].clone(),
            "max" => values[values.len() - 1].clone(),
            "lex_concat" if values.iter().all(|v| v.as_str().is_some()) => texts(""),
            "collect" => texts(", "),
            _ => self.registry.aggregate(func)?.apply(&values)?,
        })
    }
}

/// The body of `rule` in an order where every element has the
/// variables it needs bound by an earlier one: the first in textual
/// order that can run, again and again.
fn safe_order<'r>(rule: &'r Rule, relations: &Relations) -> Res<Vec<Elem<'r>>> {
    let vars = |terms: &'r [Term]| -> Vec<&'r str> {
        let var = |t: &'r Term| match t {
            Term::Variable(v) => Some(v.as_str()),
            _ => None,
        };
        terms.iter().filter_map(var).collect()
    };
    let mut elems: Vec<(Elem<'r>, Vec<&str>)> = Vec::new();
    for elem in &rule.body {
        elems.push(match elem {
            BodyElem::Relation(a) if relations.contains_key(&a.predicate) => {
                (Elem::Scan(a), vec![])
            }
            BodyElem::Relation(a) => (Elem::Call(&a.predicate, &a.terms, &[]), vars(&a.terms)),
            BodyElem::Negated(a) => (Elem::Not(a), vars(&a.terms)),
            BodyElem::Ie(IeAtom {
                function,
                inputs,
                outputs,
            }) => (Elem::Call(function, inputs, outputs), vars(inputs)),
            BodyElem::Comparison { left, op, right } => {
                let needs = [left, right].map(|t| vars(std::slice::from_ref(t)));
                (Elem::Compare(left, *op, right), needs.concat())
            }
        });
    }
    let mut bound = BTreeSet::new();
    let mut order = Vec::new();
    while !elems.is_empty() {
        let runs = |(_, needs): &(Elem, Vec<&str>)| needs.iter().all(|v| bound.contains(v));
        let Some(next) = elems.iter().position(runs) else {
            return Err(format!("no safe order for {rule}").into());
        };
        let (elem, _) = elems.remove(next);
        match &elem {
            Elem::Scan(Atom { terms, .. }) => bound.extend(vars(terms)),
            Elem::Call(_, _, outputs) => bound.extend(vars(outputs)),
            _ => {}
        }
        order.push(elem);
    }
    Ok(order)
}

/// `env` extended so that `terms` match `row`, or `None` when they
/// cannot: a constant or a bound variable must equal its cell, a
/// variable bound twice must see one value, `_` matches anything.
fn unify(terms: &[Term], row: &[Value], env: &Env) -> Res<Option<Env>> {
    if terms.len() != row.len() {
        return Err(format!("{} terms against a row of {}", terms.len(), row.len()).into());
    }
    // Copied on the first variable the row binds, not before.
    let mut env = Cow::Borrowed(env);
    for (t, v) in terms.iter().zip(row) {
        let fits = match t {
            Term::Wildcard => true,
            Term::Const(c) => constant(c) == *v,
            Term::Variable(name) => match env.get(name) {
                Some(bound) => bound == v,
                None => env.to_mut().insert(name.clone(), v.clone()).is_none(),
            },
        };
        if !fits {
            return Ok(None);
        }
    }
    Ok(Some(env.into_owned()))
}

/// The value of a term every binding row has a value for.
fn bound(t: &Term, env: &Env) -> Res<Value> {
    match t {
        Term::Const(c) => Ok(constant(c)),
        Term::Variable(v) => Ok(env.get(v).cloned().ok_or(format!("{v} is unbound"))?),
        Term::Wildcard => Err("a wildcard where a value is needed".into()),
    }
}

fn constant(c: &Constant) -> Value {
    match c {
        Constant::Str(s) => Value::str(s.as_str()),
        Constant::Int(i) => Value::Int(*i),
        Constant::Float(f) => Value::Float(*f),
        Constant::Bool(b) => Value::Bool(*b),
    }
}

/// A comparison guard: ints and floats compare as floats, other values
/// of one type by their order; values of two types are unequal, and
/// ordering them is an error.
fn compare(a: &Value, op: CmpOp, b: &Value) -> Res<bool> {
    let ord = match (a, b) {
        (Value::Int(x), Value::Float(y)) => (*x as f64).total_cmp(y),
        (Value::Float(x), Value::Int(y)) => x.total_cmp(&(*y as f64)),
        _ if a.value_type() == b.value_type() => a.cmp(b),
        _ if matches!(op, CmpOp::Eq | CmpOp::Neq) => return Ok(op == CmpOp::Neq),
        _ => return Err(format!("{a:?} {op} {b:?} orders two types").into()),
    };
    Ok(match op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Neq => ord.is_ne(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
    })
}
