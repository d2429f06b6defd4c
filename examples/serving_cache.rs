//! Long-lived serving with the `spannerlib_cache` subsystem: memoized
//! IE evaluation plus document-store garbage collection.
//!
//! A serving session that streams batches for hours faces two costs the
//! notebook workflow never sees: re-paying spanner evaluation for every
//! write, and a document store that only ever grows. A write is
//! maintained — only the rows it changed are extracted again — and this
//! example wires both knobs of the cache subsystem on top:
//!
//! * `ie_cache_capacity` — a byte-budgeted memo over
//!   `(function, args) → output rows`; a document that comes back, or
//!   goes (its extraction is replayed to retract what it derived), is
//!   answered from the memo (watch the hit counters climb);
//! * `doc_gc` — threshold-triggered compaction that tombstones
//!   documents no relation holds a span into, bounding resident text;
//!   the memo entries over a dropped document go with it.
//!
//! Run with: `cargo run --example serving_cache`

use spannerlib::prelude::*;

const MEMO_BUDGET: usize = 64 * 1024;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build: memoized IE evaluation and automatic doc-store
    //    compaction past a 256 KiB watermark. The two bounds add up:
    //    the memo's budget counts its keys and outputs, the watermark
    //    the document text, and the memo keeps no document alive.
    let mut session = Session::builder()
        .ie_cache_capacity(MEMO_BUDGET)
        .doc_gc(DocGc::Threshold { bytes: 256 * 1024 })
        .build();

    // 2. Prepare once: an extraction program whose expensive part is
    //    the rgx scan over each document.
    session.import_typed("Texts", vec![("seed", "boot text ann@gmail.com")])?;
    session.run(
        r#"
        new Audit(int)
        Audited(x) <- Audit(x)
        Email(d, usr, dom) <- Texts(d, t), rgx_string("(\w+)@(\w+)\.\w+", t) -> (usr, dom).
        Mention(d, s) <- Texts(d, t), rgx("@\w+", t) -> (s)
    "#,
    )?;
    let emails = session.prepare("?Email(d, usr, dom)")?;

    // 3. Serve: every request re-imports the corpus and appends an audit
    //    fact, and every other one rewrites Wednesday's note. The session
    //    maintains each write: an identical re-import extracts nothing,
    //    and a rewrite extracts only the note that changed — from the
    //    memo, since the two versions alternate.
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
         ({:.0}% hit rate), {} memo bytes",
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.hit_rate() * 100.0,
        stats.cache.bytes,
    );
    assert_eq!(maintained, 49, "every request after the first evaluation");
    assert!(stats.cache.hits > stats.cache.misses);

    // 4. Churn: stream 200 *distinct* documents through import →
    //    execute → remove; span outputs intern each document (the
    //    `Mention` rule), and the GC threshold keeps resident text
    //    bounded where the old append-only store grew without limit.
    //    The memo is keyed by those 2 KB texts, so the stream overflows
    //    its 64 KiB: each time it would, the table is emptied instead.
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
    let cache = session.stats().cache;
    println!(
        "memo under churn: {} entries dropped on overflow, {} of {} budget bytes resident",
        cache.evictions, cache.bytes, MEMO_BUDGET,
    );
    assert!(peak < 256 * 1024 + 8 * 1024, "watermark + one document");
    assert!(cache.evictions > 0 && cache.bytes <= MEMO_BUDGET);

    // 5. Explicit compaction reports exactly what a pass reclaims:
    //    only documents with spans in live relations survive, and the
    //    memo forgets the calls over the others.
    let entries = session.stats().cache.entries;
    let report = session.compact_docs();
    println!(
        "manual pass: removed {} docs, reclaimed {} bytes, {} bytes live; memo entries {} -> {}",
        report.removed_docs,
        report.reclaimed_bytes,
        report.live_bytes,
        entries,
        session.stats().cache.entries,
    );
    Ok(())
}
