//! Long-lived serving with the `spannerlib_cache` subsystem: the IE memo
//! of one evaluation plus document-store garbage collection.
//!
//! A serving session that streams batches for hours faces two costs the
//! notebook workflow never sees: re-paying spanner evaluation for every
//! write, and a document store that only ever grows. This example shows
//! what answers each:
//!
//! * maintained writes — only the rows a write changed are extracted
//!   again;
//! * the IE memo — the table of one evaluation's *shared calls*: a
//!   second rule asking an IE function what a first one already asked is
//!   answered from the run's table (watch the hit counters climb), while
//!   a call only one rule asks is made and kept nowhere; every
//!   evaluation starts an empty table;
//! * `doc_gc` — threshold-triggered compaction that tombstones
//!   documents no relation holds a span into, bounding resident text.
//!
//! Run with: `cargo run --example serving_cache`

use spannerlib::prelude::*;

const WATERMARK: usize = 256 * 1024;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build: automatic doc-store compaction past a 256 KiB watermark.
    let mut session = Session::builder()
        .doc_gc(DocGc::Threshold { bytes: WATERMARK })
        .build();

    // 2. Prepare once: an extraction program whose expensive part is
    //    the rgx scan over each document — and `Email` and `Contact`
    //    ask it the same question of every text: a shared call. The
    //    `rgx` of `Mention` has one site, so the memo never keeps it.
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
    let cold = session.stats().cache;
    println!(
        "first evaluation: {} IE misses, {} hits (Contact asks what Email asked)",
        cold.misses, cold.hits,
    );
    assert!(cold.hits > 0);

    // 3. Serve: every request re-imports the corpus and appends an audit
    //    fact, and every other one rewrites Wednesday's note. The session
    //    maintains each write: an identical re-import extracts nothing,
    //    and a rewrite extracts only the note that changed.
    let corpus = vec![
        ("mon", "status from ann@gmail.com and bob@work.org"),
        ("tue", "ann@gmail.com pinged eve@mail.net again"),
        ("wed", "quiet day, no addresses"),
    ];
    let mut maintained = 0;
    for request in 0..50i64 {
        let mut batch = corpus.clone();
        if request % 2 == 1 {
            batch[2].1 = "wed: zed@post.org wrote back";
        }
        session.import_typed("Texts", batch)?;
        session.add_fact("Audit", [Value::Int(request)])?;
        let out = emails.execute(&mut session)?;
        assert_eq!(out.num_rows(), 4 + request as usize % 2);
        maintained += usize::from(matches!(
            session.stats().eval.mode,
            EvalMode::Maintained { .. }
        ));
    }
    let stats = session.stats();
    println!(
        "after 50 requests: {maintained} maintained evaluations, {} IE hits, {} misses \
         ({:.0}% hit rate), {} entries in the last evaluation's memo",
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.hit_rate() * 100.0,
        stats.cache.entries,
    );
    assert_eq!(maintained, 50, "every request is a maintained write");
    assert!(
        stats.cache.hits > cold.hits,
        "maintained runs share calls too"
    );

    // 4. Churn: stream 200 *distinct* documents through import →
    //    execute → remove; span outputs intern each document (the
    //    `Mention` rule), and the GC threshold keeps resident text
    //    bounded where the old append-only store grew without limit.
    let mut peak = 0usize;
    for round in 0..200 {
        let mut unique = format!("ticket {round}: contact user{round}@host{round}.example now ");
        unique.push_str(&"lorem ipsum dolor sit amet ".repeat(80));
        session.import_typed("Texts", vec![(format!("t{round}"), unique)])?;
        emails.execute(&mut session)?;
        session.remove_relation("Texts")?;
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
    let cache = session.stats().cache;
    println!(
        "the last evaluation's memo: {} entries, {} bytes — its own document's shared call only",
        cache.entries, cache.bytes,
    );
    assert_eq!(
        cache.entries, 1,
        "the rgx_string call Email and Contact share"
    );

    // 5. Explicit compaction reports exactly what a pass reclaims: only
    //    documents with spans in live relations survive.
    let report = session.compact_docs();
    println!(
        "manual pass: removed {} docs, reclaimed {} bytes, {} bytes live",
        report.removed_docs, report.reclaimed_bytes, report.live_bytes,
    );
    Ok(())
}
