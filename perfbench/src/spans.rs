//! The benchmark's own span recorder: one span around each layer call
//! the benchmark makes, with name, start, end and parent id, kept in
//! memory and written out when the run ends. Spans inside the solver
//! crates are not used: these wrap the public calls from outside, so
//! the recorded layer boundaries do not depend on the code under test.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static RECORDS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One closed span; times are ns since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ON.store(on, Ordering::SeqCst);
}

/// An open span; recorded when dropped. Inert while recording is off.
#[must_use]
pub struct Span {
    open: Option<(u64, Option<u64>, &'static str, u64)>,
}

/// Open a span under the innermost span open on this thread.
pub fn span(name: &'static str) -> Span {
    if !ON.load(Ordering::Relaxed) {
        return Span { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied();
        open.push(id);
        parent
    });
    Span {
        open: Some((id, parent, name, now_ns())),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((id, parent, name, start_ns)) = self.open.take() {
            let end_ns = now_ns();
            OPEN.with(|open| {
                open.borrow_mut().retain(|&x| x != id);
            });
            RECORDS
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(SpanRecord {
                    id,
                    parent,
                    name,
                    start_ns,
                    end_ns,
                });
        }
    }
}

/// Every span closed so far.
pub fn records() -> Vec<SpanRecord> {
    RECORDS.lock().unwrap_or_else(|p| p.into_inner()).clone()
}

/// Per-name totals: `(count, total ns, self ns)`, where a span's self
/// time is its duration minus the part of its interval its children
/// cover (children of one span run on its thread, one after another).
pub fn self_times(recs: &[SpanRecord]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
    let by_id: BTreeMap<u64, &SpanRecord> = recs.iter().map(|r| (r.id, r)).collect();
    for r in recs {
        if let Some(p) = r.parent.and_then(|p| by_id.get(&p)) {
            let lo = r.start_ns.max(p.start_ns);
            let hi = r.end_ns.min(p.end_ns);
            *covered.entry(p.id).or_default() += hi.saturating_sub(lo);
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for r in recs {
        let dur = r.end_ns.saturating_sub(r.start_ns);
        let own = dur.saturating_sub(covered.get(&r.id).copied().unwrap_or(0));
        let e = out.entry(r.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += own;
    }
    out
}

/// The self-time table, largest self time first, as printable lines.
pub fn table(recs: &[SpanRecord]) -> Vec<String> {
    let mut rows: Vec<_> = self_times(recs).into_iter().collect();
    rows.sort_by_key(|(_, (_, _, own))| std::cmp::Reverse(*own));
    let mut lines = vec![format!(
        "{:<28} {:>7} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    )];
    for (name, (count, total, own)) in rows {
        lines.push(format!(
            "{:<28} {:>7} {:>12.3} {:>12.3}",
            name,
            count,
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    lines
}

/// Write the spans as JSON lines.
pub fn write_jsonl(path: &Path, recs: &[SpanRecord]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for r in recs {
        writeln!(
            f,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            r.id,
            r.parent.map_or("null".to_string(), |p| p.to_string()),
            r.name,
            r.start_ns,
            r.end_ns
        )?;
    }
    f.flush()
}
