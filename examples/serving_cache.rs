//! Long-lived serving with the `spannerlib_cache` subsystem's
//! document-store garbage collection, beside the two ways an evaluation
//! avoids asking an IE function twice.
//!
//! A serving session that streams batches for hours faces two costs the
//! notebook workflow never sees: re-paying spanner evaluation for every
//! write, and a document store that only ever grows. This example shows
//! what answers each:
//!
//! * shared calls — a second rule asking an IE function what a first one
//!   asks is no second call: the program plans the call as a relation of
//!   its own, which the evaluation fills once per distinct argument
//!   (watch the body-call counts of the profile);
//! * maintained writes — only the rows a write changed are extracted
//!   again, and the shared call's relation is maintained like any other;
//! * `doc_gc` — threshold-triggered compaction that tombstones
//!   documents no relation holds a span into, bounding resident text.
//!
//! Run with: `cargo run --example serving_cache`

use spannerlib::prelude::*;

const WATERMARK: usize = 256 * 1024;

/// How often the last evaluation ran the body of `function`.
fn body_calls(session: &Session, function: &str) -> u64 {
    let profile = session.profile().expect("a traced session");
    let f = profile.ie_functions.iter().find(|f| f.name == function);
    f.map_or(0, |f| f.calls)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build: automatic doc-store compaction past a 256 KiB watermark,
    //    and a per-run profile to count IE body calls with.
    let mut session = Session::builder()
        .doc_gc(DocGc::Threshold { bytes: WATERMARK })
        .tracing(TraceLevel::Summary)
        .build();

    // 2. Prepare once: an extraction program whose expensive part is
    //    the rgx scan over each document — and `Email` and `Contact`
    //    ask it the same question of every text: a shared call. The
    //    `rgx` of `Mention` has one site and stays a plain IE step.
    session.import_typed("Texts", vec![("seed", "boot text ann@gmail.com")])?;
    session.run(
        r#"
        new Audit(int)
        Audited(x) <- Audit(x)
        Email(d, usr, dom) <- Texts(d, t), rgx_string("(\w+)@(\w+)\.\w+", t) -> (usr, dom).
        Contact(usr) <- Texts(d, t), rgx_string("(\w+)@(\w+)\.\w+", t) -> (usr, dom).
        Mention(d, s) <- Texts(d, t), rgx("@\w+", t) -> (s)
    "#,
    )?;
    let emails = session.prepare("?Email(d, usr, dom)")?;
    emails.execute(&mut session)?;
    let cold = body_calls(&session, "rgx_string");
    println!(
        "first evaluation: rgx_string ran {cold} time for 1 text (Email and Contact share it)"
    );
    assert_eq!(cold, 1);

    // 3. Serve: every request re-imports the corpus and appends an audit
    //    fact, and every other one rewrites Wednesday's note. The session
    //    maintains each write: an identical re-import extracts nothing,
    //    and a rewrite extracts only the note that changed.
    let corpus = vec![
        ("mon", "status from ann@gmail.com and bob@work.org"),
        ("tue", "ann@gmail.com pinged eve@mail.net again"),
        ("wed", "quiet day, no addresses"),
    ];
    let (mut maintained, mut calls) = (0, 0);
    for request in 0..50i64 {
        let mut batch = corpus.clone();
        if request % 2 == 1 {
            batch[2].1 = "wed: zed@post.org wrote back";
        }
        session.import_typed("Texts", batch)?;
        session.add_fact("Audit", [Value::Int(request)])?;
        let out = emails.execute(&mut session)?;
        assert_eq!(out.num_rows(), 4 + request as usize % 2);
        maintained += usize::from(matches!(session.stats().mode, EvalMode::Maintained { .. }));
        calls += body_calls(&session, "rgx_string");
    }
    println!(
        "after 50 requests: {maintained} maintained evaluations, rgx_string ran {calls} times \
         (3 texts, then the one note each request rewrites)"
    );
    assert_eq!(maintained, 50, "every request is a maintained write");
    assert_eq!(calls, 3 + 49, "once per text a write added");

    // 4. Churn: stream 200 *distinct* documents through import →
    //    execute → an empty import (the rules read `Texts`, so it is
    //    emptied, not removed); span outputs intern each document (the
    //    `Mention` rule), and the GC threshold keeps resident text
    //    bounded where the old append-only store grew without limit.
    let mut peak = 0usize;
    for round in 0..200 {
        let mut unique = format!("ticket {round}: contact user{round}@host{round}.example now ");
        unique.push_str(&"lorem ipsum dolor sit amet ".repeat(80));
        session.import_typed("Texts", vec![(format!("t{round}"), unique)])?;
        emails.execute(&mut session)?;
        session.import_typed("Texts", Vec::<(String, String)>::new())?;
        peak = peak.max(session.docs().bytes());
    }
    println!(
        "after 200-document churn: {} live docs, {} resident bytes (peak {}), epoch {}",
        session.docs().len(),
        session.docs().bytes(),
        peak,
        session.docs().epoch(),
    );
    assert!(peak < WATERMARK + 8 * 1024, "watermark + one document");
    let last = body_calls(&session, "rgx_string");
    println!("the last evaluation ran rgx_string {last} time: its own document, for both rules");
    assert_eq!(last, 1);

    // 5. Explicit compaction reports exactly what a pass reclaims: only
    //    documents with spans in live relations survive.
    let report = session.compact_docs();
    println!(
        "manual pass: removed {} docs, reclaimed {} bytes, {} bytes live",
        report.removed_docs, report.reclaimed_bytes, report.live_bytes,
    );
    Ok(())
}
