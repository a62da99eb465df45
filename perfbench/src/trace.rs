//! In-memory spans recorded around calls into the library's public API.
//!
//! A span has a name (the layer, e.g. `engine.run`), a tag (the scenario
//! or campaign it belongs to), a start and end relative to the tracer's
//! epoch, a parent span and a group id shared by every span of one grid
//! point. Spans stay in memory until [`Tracer::write_ndjson`] at the end of
//! the run; [`Tracer::self_times`] derives per-layer self time from them.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Id of a recorded span; `0` means "no span" (a root, or tracing off).
pub type SpanId = u64;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub group: u64,
    pub name: &'static str,
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store lock").clone()
    }

    /// Spans named `name` (any tag when `tag` is `None`).
    pub fn named(&self, name: &str, tag: Option<&str>) -> Vec<Span> {
        let spans = self.spans.lock().expect("span store lock");
        spans
            .iter()
            .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
            .copied()
            .collect()
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover (children may run on other threads).
    pub fn self_times(&self) -> HashMap<SpanId, f64> {
        let spans = self.spans();
        let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
        for s in &spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        spans
            .iter()
            .map(|s| {
                let mut covered = 0u64;
                if let Some(kids) = children.get_mut(&s.id) {
                    kids.sort_unstable();
                    let mut cursor = s.start_ns;
                    for &(start, end) in kids.iter() {
                        let (start, end) = (start.max(cursor), end.min(s.end_ns));
                        if end > start {
                            covered += end - start;
                            cursor = end;
                        }
                    }
                }
                (s.id, (s.end_ns - s.start_ns - covered) as f64 * 1e-9)
            })
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"group\":{},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.group, s.name, s.tag, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Tracing handle passed through the workloads: a no-op when off, so the
/// untraced passes run the same code without recording anything.
#[derive(Clone, Copy)]
pub struct Trace<'a>(pub Option<&'a Arc<Tracer>>);

impl Trace<'_> {
    pub const OFF: Trace<'static> = Trace(None);

    /// A shared handle, for decorators that must outlive the borrow.
    pub fn tracer(self) -> Option<Arc<Tracer>> {
        self.0.cloned()
    }

    /// Run `f` inside a span; `f` receives the span's id to parent its
    /// children on.
    pub fn span<T>(
        self,
        name: &'static str,
        tag: &'static str,
        parent: SpanId,
        group: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let Some(tracer) = self.0 else {
            return f(0);
        };
        let id = tracer.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = tracer.now_ns();
        let out = f(id);
        let end_ns = tracer.now_ns();
        tracer.spans.lock().expect("span store lock").push(Span {
            id,
            parent,
            group,
            name,
            tag,
            start_ns,
            end_ns,
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let tracer = Arc::new(Tracer::new());
        let trace = Trace(Some(&tracer));
        let sleep = |ms| std::thread::sleep(std::time::Duration::from_millis(ms));
        let root = trace.span("root", "", 0, 0, |root| {
            trace.span("child", "", root, 0, |_| sleep(20));
            trace.span("child", "", root, 0, |_| sleep(20));
            sleep(10);
            root
        });
        let selfs = tracer.self_times();
        let total = tracer.named("root", None)[0].secs();
        let children: f64 = tracer.named("child", None).iter().map(Span::secs).sum();
        assert!((selfs[&root] - (total - children)).abs() < 1e-6);
        assert!(selfs[&root] >= 0.009);
    }

    #[test]
    fn off_handle_records_nothing() {
        assert_eq!(Trace::OFF.span("x", "", 0, 0, |id| id), 0);
    }
}
