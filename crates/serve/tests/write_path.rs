//! Scripts of writes, held equal across the two front ends of a session
//! and the reference evaluator (`support`).
//!
//! A script draws cells — generated programs (`programs`), some spoiled
//! by an edit so that they do not compile, declarations and facts, some
//! with a query between their writes — and imports, declarations,
//! facts, removals and `clear_rules`. A cell (`/register`) and an import
//! (`/import`) go to an embedded `Session` and to `spannerd` over
//! loopback; the other writes have no route and go to the embedded
//! session alone, after which the two hold different state, each fed to
//! a reference of its own. After every step:
//!
//! - while the front ends hold the same state, they accept the same
//!   writes (`Err` ⇔ 4xx);
//! - every relation a front end's reference knows answers a query
//!   (`export` / `/execute`) as the reference derives it;
//! - a refused write leaves every answer and `spannerd`'s publish
//!   version as they were, and one that ran no evaluation of its own
//!   leaves the next evaluation nothing to do;
//! - after an accepted write the rules compile (`prepare_program`).
//!
//! The vendored proptest does not shrink: a failing script is run again
//! on ever shorter prefixes, and the shortest that fails is printed.

#[path = "../../engine/tests/programs/mod.rs"]
mod programs;
#[path = "../../engine/tests/support/mod.rs"]
mod support;

use programs::{layered_program, layered_program_strategy, program_at, PROGRAMS};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use spannerlib_core::{Relation, Schema, Value, ValueType};
use spannerlib_serve::{Client, Json, ServeConfig, Server, ServerHandle};
use spannerlog_engine::{EngineError, Registry, Session};
use spannerlog_parser::{parse_program, Atom, BodyElem, Constant, HeadTerm, Rule, Statement, Term};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One step of a script.
#[derive(Debug, Clone)]
enum Op {
    /// A cell: `run` / `/register`.
    Cell(String),
    /// An import: `import_relation` / `/import`.
    Import(&'static str, Vec<Vec<Value>>),
    /// `declare` of a relation of ints, of this arity.
    Declare(&'static str, usize),
    /// `add_fact`.
    Fact(&'static str, Vec<Value>),
    /// `remove_relation`.
    Remove(&'static str),
    /// `clear_rules`.
    ClearRules,
}

/// The names a script writes besides those of its programs.
const NAMES: &[&str] = &["Edge", "Texts", "Extra", "T", "Kept", "P0", "Node"];

/// What every script starts from, on both front ends.
const SETUP: &str = "new Edge(int, int)\nKept(x, y) <- Edge(x, y)";

/// Every answer of a front end, by relation: its rows, written as
/// [`cell`] writes them, or the kind of error its evaluation failed with.
type Answers = BTreeMap<String, Result<BTreeSet<Vec<String>>, String>>;

/// A value as both front ends can write it: a span as its text and its
/// offsets (`/execute` names no document).
fn cell(value: &Value, span_text: impl Fn(&spannerlib_core::Span) -> String) -> String {
    match value {
        Value::Span(s) => format!("[{:?} {}..{}]", span_text(s), s.start, s.end),
        Value::Str(s) => format!("{:?}", &**s),
        other => format!("{other:?}"),
    }
}

/// The relations the writes a front end accepted hold, and its rules.
#[derive(Default)]
struct Model {
    relations: BTreeMap<String, (usize, BTreeSet<Vec<Value>>)>,
    rules: Vec<Rule>,
}

impl Model {
    /// Takes in an accepted write.
    fn apply(&mut self, op: &Op) {
        match op {
            Op::Cell(source) => {
                for statement in parse_program(source).expect("it ran").statements {
                    match statement {
                        Statement::Declaration(d) => {
                            self.relations
                                .insert(d.name, (d.types.len(), BTreeSet::new()));
                        }
                        Statement::Fact(f) => {
                            let row = f.values.iter().map(constant).collect();
                            self.relations.get_mut(&f.predicate).unwrap().1.insert(row);
                        }
                        Statement::Rule(r) => self.rules.push(r),
                        Statement::Query(_) => {}
                    }
                }
            }
            Op::Import(name, rows) => {
                let arity = rows
                    .first()
                    .map_or_else(|| self.relations[*name].0, Vec::len);
                let rows = rows.iter().cloned().collect();
                self.relations.insert(name.to_string(), (arity, rows));
            }
            Op::Declare(name, arity) => {
                self.relations
                    .insert(name.to_string(), (*arity, BTreeSet::new()));
            }
            Op::Fact(name, row) => {
                self.relations.get_mut(*name).unwrap().1.insert(row.clone());
            }
            Op::Remove(name) => drop(self.relations.remove(*name)),
            Op::ClearRules => self.rules.clear(),
        }
    }

    /// Every relation the model knows, with its arity.
    fn names(&self) -> BTreeMap<String, usize> {
        let heads = self
            .rules
            .iter()
            .map(|r| (r.head_predicate.clone(), r.head_terms.len()));
        let relations = self
            .relations
            .iter()
            .map(|(n, (arity, _))| (n.clone(), *arity));
        heads.chain(relations).collect()
    }

    /// What the reference evaluator derives from the model.
    fn answers(&self) -> Answers {
        let program: String = self.rules.iter().map(|r| format!("{r}\n")).collect();
        let inputs: Vec<(&str, Vec<Vec<Value>>)> = (self.relations.iter())
            .map(|(name, (_, rows))| (name.as_str(), rows.iter().cloned().collect()))
            .collect();
        let derived = support::evaluate(&program, &inputs, &Registry::default());
        let derived = derived.unwrap_or_else(|e| panic!("the reference failed: {e}\n{program}"));
        let docs = derived.docs.read();
        let text = |s: &spannerlib_core::Span| docs.span_text(s).unwrap().to_string();
        let rows = |name: &str| {
            let rows = derived.relations.get(name).into_iter().flatten();
            rows.map(|row| row.iter().map(|v| cell(v, text)).collect())
                .collect()
        };
        let names = self.names().into_keys();
        names.map(|name| (name.clone(), Ok(rows(&name)))).collect()
    }
}

fn constant(c: &Constant) -> Value {
    match c {
        Constant::Str(s) => Value::str(s.as_str()),
        Constant::Int(n) => Value::Int(*n),
        other => panic!("no script writes {other:?}"),
    }
}

/// `?name(x0, …)` over `arity` variables.
fn query(name: &str, arity: usize) -> String {
    let vars: Vec<String> = (0..arity).map(|i| format!("x{i}")).collect();
    format!("?{name}({})", vars.join(", "))
}

/// The errors an evaluation of rules that compiled may fail with: each
/// depends on the data.
fn data_error(err: &EngineError) -> bool {
    let debug = format!("{err:?}");
    [
        "IeRuntime",
        "IeOutputArity",
        "AggRuntime",
        "Core(TypeMismatch",
    ]
    .iter()
    .any(|kind| debug.starts_with(kind))
}

fn embedded_answers(session: &mut Session, names: &BTreeMap<String, usize>) -> Answers {
    let mut answers = Answers::new();
    for (name, &arity) in names {
        let answer = match session.export(&query(name, arity)) {
            Ok(frame) => {
                let text = |s: &spannerlib_core::Span| session.span_text(s).unwrap();
                let rows = frame.iter_rows();
                Ok(rows
                    .map(|row| row.iter().map(|v| cell(v, text)).collect())
                    .collect())
            }
            Err(err) => {
                assert!(data_error(&err), "{name}: {err:?}");
                Err("evaluation failed".to_string())
            }
        };
        answers.insert(name.clone(), answer);
    }
    answers
}

/// `spannerd` on an ephemeral port, shut down when dropped.
struct Daemon {
    client: Client,
    handle: ServerHandle,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    fn boot() -> Daemon {
        let cfg = ServeConfig {
            workers: 2,
            default_deadline_ms: None,
            max_eval_millis: None,
            ..ServeConfig::default()
        };
        let server = Server::bind(Session::new(), cfg).expect("bind ephemeral port");
        let client = Client::new(server.local_addr());
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.serve().expect("serve"));
        let thread = Some(thread);
        Daemon {
            client,
            handle,
            thread,
        }
    }

    /// POSTs `body`: whether the write was accepted (a 4xx is a refusal).
    fn write(&mut self, path: &str, body: Json) -> bool {
        let resp = self.client.post(path, &body).expect("request");
        assert!(
            resp.status == 200 || (400..500).contains(&resp.status),
            "{}",
            resp.body
        );
        resp.status == 200
    }

    /// Applies `op` through its route — a declaration and a fact as the
    /// cell that writes them — or `None` when it has none.
    fn apply(&mut self, op: &Op) -> Option<bool> {
        Some(match op {
            Op::Cell(source) => self.cell(source),
            Op::Import(name, rows) => self.import(name, rows),
            Op::Declare(name, arity) => {
                let types = vec!["int"; *arity].join(", ");
                self.cell(&format!("new {name}({types})"))
            }
            Op::Fact(name, row) => {
                let values: Vec<String> = (row.iter())
                    .map(|v| match v {
                        Value::Int(n) => n.to_string(),
                        other => format!("{:?}", other.as_str().unwrap()),
                    })
                    .collect();
                self.cell(&format!("{name}({})", values.join(", ")))
            }
            Op::Remove(_) | Op::ClearRules => return None,
        })
    }

    fn cell(&mut self, source: &str) -> bool {
        let body = Json::Obj(vec![("rules".into(), Json::str(source))]);
        self.write("/register", body)
    }

    fn import(&mut self, name: &str, rows: &[Vec<Value>]) -> bool {
        let cell = |v: &Value| match v {
            Value::Int(n) => Json::Int(*n),
            Value::Str(s) => Json::str(&**s),
            other => panic!("no script imports {other:?}"),
        };
        let rows = rows
            .iter()
            .map(|row| Json::Arr(row.iter().map(cell).collect()));
        let body = Json::Obj(vec![
            ("relation".into(), Json::str(name)),
            ("rows".into(), Json::Arr(rows.collect())),
        ]);
        self.write("/import", body)
    }

    /// Every answer, and the publish version they were read from.
    fn answers(&mut self, names: &BTreeMap<String, usize>) -> (Answers, i64) {
        let (mut answers, mut version) = (Answers::new(), -1);
        for (name, &arity) in names {
            let body = Json::Obj(vec![("query".into(), Json::str(query(name, arity)))]);
            let resp = self.client.post("/execute", &body).expect("request");
            let json = resp.json().expect("a JSON body");
            if resp.status != 200 {
                answers.insert(name.clone(), Err("evaluation failed".to_string()));
                continue;
            }
            version = json.get("version").and_then(Json::as_i64).unwrap();
            let cell = |v: &Json| match v {
                Json::Int(n) => format!("Int({n})"),
                Json::Str(s) => format!("{s:?}"),
                span => {
                    let field = |k| span.get(k).unwrap();
                    let (start, end) = (
                        field("start").as_i64().unwrap(),
                        field("end").as_i64().unwrap(),
                    );
                    format!("[{:?} {start}..{end}]", field("text").as_str().unwrap())
                }
            };
            let rows = json.get("rows").and_then(Json::as_array).unwrap();
            let rows = rows
                .iter()
                .map(|row| row.as_array().unwrap().iter().map(cell).collect());
            answers.insert(name.clone(), Ok(rows.collect()));
        }
        (answers, version)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Spoils `rules` so that they do not compile as they are, by one of four
/// edits at the rule `site` picks: an unbound head variable, an unknown
/// body atom, another head arity, or a head that negates itself.
fn spoil(rules: &mut [Rule], kind: u64, site: u64) {
    let rule = &mut rules[site as usize % rules.len()];
    match kind {
        0 => rule
            .head_terms
            .push(HeadTerm::Term(Term::Variable("nowhere".into()))),
        1 => {
            let atom = rule.body.iter_mut().find_map(|b| match b {
                BodyElem::Relation(a) => Some(a),
                _ => None,
            });
            if let Some(atom) = atom {
                atom.predicate = "Nowhere".into();
            }
        }
        2 => rule
            .head_terms
            .push(HeadTerm::Term(Term::Const(Constant::Int(0)))),
        _ => {
            let terms = vec![Term::Wildcard; rule.head_terms.len()];
            let predicate = rule.head_predicate.clone();
            rule.body.push(BodyElem::Negated(Atom { predicate, terms }));
        }
    }
}

fn int(rng: &mut TestRng, below: u64) -> Value {
    Value::Int(rng.below(below) as i64)
}

fn edges(rng: &mut TestRng) -> Vec<Vec<Value>> {
    let n = rng.below(10);
    (0..n).map(|_| vec![int(rng, 8), int(rng, 8)]).collect()
}

fn texts(rng: &mut TestRng) -> Vec<Vec<Value>> {
    let text = |rng: &mut TestRng| {
        let n = rng.below(12);
        (0..n)
            .map(|_| ['a', 'b', ' ', 'x'][rng.below(4) as usize])
            .collect::<String>()
    };
    let n = 1 + rng.below(3);
    (0..n)
        .map(|i| vec![Value::str(format!("d{i}")), Value::str(text(rng))])
        .collect()
}

/// A cell: a generated program, spoiled one time in three, or facts and
/// declarations; either may carry a query between its writes.
fn draw_cell(rng: &mut TestRng) -> String {
    let mut cell = String::new();
    if rng.below(3) == 0 {
        cell.push_str(&format!("Edge({}, {})\n", rng.below(8), rng.below(8)));
    }
    if rng.below(3) == 0 {
        cell.push_str("?Kept(x, y)\n");
    }
    match rng.below(4) {
        0 | 1 => {
            let heads = layered_program_strategy().generate(rng);
            let pick = rng.below(PROGRAMS as u64) as usize;
            let source = format!("{}{}", layered_program(&heads), program_at(pick));
            let statements = parse_program(&source).expect("a generated program parses");
            let mut rules: Vec<Rule> = (statements.statements.into_iter())
                .filter_map(|s| match s {
                    Statement::Rule(r) => Some(r),
                    _ => None,
                })
                .collect();
            if rng.below(3) == 0 {
                spoil(&mut rules, rng.below(4), rng.next_u64());
            }
            cell.extend(rules.iter().map(|r| format!("{r}\n")));
        }
        2 => {
            let name = NAMES[rng.below(NAMES.len() as u64) as usize];
            let types = vec!["int"; 1 + rng.below(2) as usize].join(", ");
            cell.push_str(&format!("new {name}({types})\n"));
        }
        _ => {
            cell.push_str(&format!("Edge({}, {})\n", rng.below(8), rng.below(8)));
            if rng.below(2) == 0 {
                cell.push_str("Edge(\"x\", 1)\n");
            }
        }
    }
    cell
}

fn draw_op(rng: &mut TestRng) -> Op {
    let name = |rng: &mut TestRng| NAMES[rng.below(NAMES.len() as u64) as usize];
    match rng.below(20) {
        0..=6 => Op::Cell(draw_cell(rng)),
        7..=11 => match rng.below(5) {
            0 | 1 => Op::Import("Edge", edges(rng)),
            2 => Op::Import("Texts", texts(rng)),
            3 => Op::Import("T", vec![vec![int(rng, 4)]]),
            _ => {
                let n = rng.below(3) as usize;
                Op::Import(
                    name(rng),
                    vec![vec![int(rng, 4); 1 + n]; rng.below(2) as usize],
                )
            }
        },
        12 | 13 => Op::Declare(name(rng), 1 + rng.below(2) as usize),
        14 | 15 => match rng.below(3) {
            0 => Op::Fact("Edge", vec![Value::str("x"), int(rng, 8)]),
            _ => Op::Fact("Edge", vec![int(rng, 8), int(rng, 8)]),
        },
        16..=18 => Op::Remove(name(rng)),
        _ => Op::ClearRules,
    }
}

fn draw_script(rng: &mut TestRng) -> (Vec<Vec<Value>>, Vec<Vec<Value>>, Vec<Op>) {
    let (edges, texts) = (edges(rng), texts(rng));
    let n = 4 + rng.below(12);
    (edges, texts, (0..n).map(|_| draw_op(rng)).collect())
}

/// Applies `op` to the embedded session: whether it was accepted.
fn embedded(session: &mut Session, op: &Op) -> bool {
    match op {
        Op::Cell(source) => session.run(source).is_ok(),
        Op::Import(name, rows) => match rows.first() {
            Some(first) => {
                let schema = Schema::new(first.iter().map(Value::value_type).collect::<Vec<_>>());
                let mut relation = Relation::new(schema);
                for row in rows {
                    relation.insert_row(row).unwrap();
                }
                session.import_relation(name, relation).is_ok()
            }
            None => session.import_typed(name, Vec::<(i64,)>::new()).is_ok(),
        },
        Op::Declare(name, arity) => {
            let schema = Schema::new(vec![ValueType::Int; *arity]);
            session.declare(name, schema).is_ok()
        }
        Op::Fact(name, row) => session.add_fact(name, row.iter().cloned()).is_ok(),
        Op::Remove(name) => session.remove_relation(name).is_ok(),
        Op::ClearRules => {
            session.clear_rules();
            true
        }
    }
}

/// Runs a script on both front ends and checks every step; counts the
/// writes accepted, those refused, and the steps the daemon took too.
fn run_script((edges, texts, ops): &(Vec<Vec<Value>>, Vec<Vec<Value>>, Vec<Op>)) -> [usize; 3] {
    let mut counts = [0; 3];
    let mut session = Session::new();
    let mut daemon = Daemon::boot();
    let mut model = Model::default();
    let setup = [
        Op::Cell(SETUP.to_string()),
        Op::Import("Edge", edges.clone()),
        Op::Import("Texts", texts.clone()),
    ];
    for op in &setup {
        assert!(embedded(&mut session, op), "{op:?}");
        assert_eq!(daemon.apply(op), Some(true), "{op:?}");
        model.apply(op);
    }
    // Whether the daemon holds what the embedded session holds: until a
    // write without a route sets them apart.
    let mut in_step = true;
    let mut held = embedded_answers(&mut session, &model.names());
    check_reference(&held, &model, &|| "setup".to_string());
    let (served, mut version) = daemon.answers(&model.names());
    assert_eq!(served, held);
    for (step, op) in ops.iter().enumerate() {
        let at = || format!("step {step}: {op:?}");
        let seq = session.eval_seq();
        let accepted = embedded(&mut session, op);
        let taken = if in_step { daemon.apply(op) } else { None };
        counts[usize::from(!accepted)] += 1;
        counts[2] += usize::from(taken.is_some());
        if accepted {
            model.apply(op);
            assert!(session.prepare_program().is_ok(), "{}", at());
        }
        let answers = embedded_answers(&mut session, &model.names());
        if !accepted {
            assert_eq!(answers, held, "a refused write changed an answer: {}", at());
            // One that ran no query left the last run standing.
            let queried = matches!(op, Op::Cell(source) if source.contains('?'));
            if !queried && held.values().all(Result::is_ok) {
                assert_eq!(session.eval_seq(), seq, "{}", at());
            }
        }
        check_reference(&answers, &model, &at);
        match taken {
            None => in_step &= !accepted,
            Some(taken) => {
                assert_eq!(taken, accepted, "the front ends disagree on {}", at());
                let (served, now) = daemon.answers(&model.names());
                assert_eq!(served, answers, "spannerd answers otherwise: {}", at());
                if !taken {
                    assert_eq!(now, version, "a refused write moved the publish: {}", at());
                }
                version = now;
            }
        }
        held = answers;
    }
    counts
}

/// The answers a front end gave agree with its reference, wherever its
/// evaluation succeeded.
fn check_reference(answers: &Answers, model: &Model, at: &dyn Fn() -> String) {
    if answers.values().any(Result::is_err) {
        return;
    }
    let reference = model.answers();
    for (name, answer) in answers {
        assert_eq!(answer, &reference[name], "relation {name} at {}", at());
    }
}

/// Scripts of writes through both front ends agree with each other and
/// with the reference, and a refused write changes nothing.
#[test]
fn scripts_of_writes_agree_across_front_ends_and_the_reference() {
    let cases = if cfg!(debug_assertions) { 24 } else { 160 };
    let mut rng = TestRng::from_name("scripts_of_writes_agree_across_front_ends_and_the_reference");
    let mut counts = [0; 3];
    for case in 0..cases {
        let script = draw_script(&mut rng);
        if let Ok(run) = catch_unwind(AssertUnwindSafe(|| run_script(&script))) {
            (0..3).for_each(|i| counts[i] += run[i]);
            continue;
        }
        // No shrinking in the vendored proptest: the shortest failing prefix.
        let (edges, texts, ops) = &script;
        let fails = |n: usize| {
            let prefix = (edges.clone(), texts.clone(), ops[..n].to_vec());
            catch_unwind(AssertUnwindSafe(|| run_script(&prefix))).is_err()
        };
        let shortest = (0..=ops.len()).find(|&n| fails(n)).unwrap_or(ops.len());
        let prefix = (edges.clone(), texts.clone(), ops[..shortest].to_vec());
        eprintln!("case {case} fails; its shortest failing prefix:\n{prefix:?}");
        run_script(&prefix);
    }
    let [accepted, refused, served] = counts;
    eprintln!("{accepted} writes accepted, {refused} refused, {served} through spannerd too");
    assert!(accepted > cases && refused > cases, "too few of one kind");
}
