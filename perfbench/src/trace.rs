//! In-memory span recording around calls into the program's public
//! functions, a claim-by-index worker pool that records per thread, and
//! the self-time analysis.
//!
//! A span is `(name, start, end, parent, request id)`. Spans are kept in
//! per-thread vectors while the replay runs and written out once it ends.
//! A layer's self time is its spans' durations minus the time covered by
//! their direct children (children of one span never overlap: a thread
//! runs them one after another).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Parent index of a root span.
const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Candidate Koopman value, burst index or packet index.
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, req: u64) {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        self.open.push(self.spans.len() as u32);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
    }

    pub fn close(&mut self) {
        let end = self.now();
        let idx = self.open.pop().expect("close matches an open span");
        self.spans[idx as usize].end_ns = end;
    }

    /// Records `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.open(name, req);
        let out = f();
        self.close();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span is closed");
        self.spans
    }
}

/// Runs `work(state, item, tracer)` for items `0..n` on `threads` scoped
/// workers that claim items through one atomic counter — the claim idiom
/// of the program's own pools. Each worker builds its state with `init`.
/// Returns the per-item results in item order and every thread's spans.
pub fn pool<S, T: Send>(
    threads: usize,
    n: usize,
    epoch: Instant,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize, &mut Tracer) -> T + Sync,
) -> (Vec<T>, Vec<Vec<Span>>) {
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut spans = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.clamp(1, n.max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut tracer = Tracer::new(epoch);
                    let mut done = Vec::new();
                    loop {
                        let item = next.fetch_add(1, Ordering::Relaxed);
                        if item >= n {
                            break;
                        }
                        done.push((item, work(&mut state, item, &mut tracer)));
                    }
                    (done, tracer.into_spans())
                })
            })
            .collect();
        for h in handles {
            let (done, thread_spans) = h.join().expect("replay worker panicked");
            for (item, r) in done {
                results[item] = Some(r);
            }
            spans.push(thread_spans);
        }
    });
    let results = results
        .into_iter()
        .map(|r| r.expect("every item was claimed"))
        .collect();
    (results, spans)
}

/// Per-name aggregates over every thread's spans.
#[derive(Debug, Default)]
pub struct Layer {
    /// Inclusive duration of each span, ns.
    pub durs: Vec<u64>,
    /// Self time of each span (its duration minus its children's), ns.
    pub selfs: Vec<u64>,
}

impl Layer {
    pub fn total_ns(&self) -> u64 {
        self.durs.iter().sum()
    }
}

/// Aggregates spans by name; also returns the Σ duration of root spans
/// (the traced busy time).
pub fn layers(threads: &[Vec<Span>]) -> (BTreeMap<&'static str, Layer>, u64) {
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    let mut busy = 0;
    for spans in threads {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent == ROOT {
                busy += s.dur_ns();
            } else {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        for (s, covered) in spans.iter().zip(child_ns) {
            let layer = out.entry(s.name).or_default();
            layer.durs.push(s.dur_ns());
            layer.selfs.push(s.dur_ns() - covered);
        }
    }
    (out, busy)
}

/// Writes a workload's spans to `<trace dir>/<workload>.csv`.
pub fn save(ctx: &crate::Ctx, workload: &str, threads: &[Vec<Span>]) -> Result<(), String> {
    let path = ctx.trace_dir.join(format!("{workload}.csv"));
    write_csv(&path, threads).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("  spans: {}", path.display());
    Ok(())
}

/// Writes every span as CSV: `thread,index,parent,name,req,start_ns,end_ns`
/// (parent is empty for a root span).
fn write_csv(path: &Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "thread,index,parent,name,req,start_ns,end_ns")?;
    for (t, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{t},{i},{parent},{},{},{},{}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let s = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        };
        let spans = vec![
            s("unit", 0, 100, ROOT),
            s("filter", 10, 50, 0),
            s("bind", 10, 20, 1),
            s("w4", 20, 45, 1),
            s("record", 60, 90, 0),
        ];
        let (by_name, busy) = layers(&[spans]);
        assert_eq!(busy, 100);
        assert_eq!(by_name["unit"].selfs, [30]);
        assert_eq!(by_name["filter"].selfs, [5]);
        assert_eq!(by_name["w4"].selfs, [25]);
        assert_eq!(by_name["record"].total_ns(), 30);
    }

    #[test]
    fn pool_returns_results_in_item_order_from_every_thread() {
        let (out, spans) = pool(
            2,
            9,
            Instant::now(),
            || 0u64,
            |count, item, tr| {
                *count += 1;
                tr.span("item", item as u64, || item * item)
            },
        );
        assert_eq!(out, (0..9).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(spans.iter().map(Vec::len).sum::<usize>(), 9);
    }
}
