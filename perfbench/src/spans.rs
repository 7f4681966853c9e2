//! In-memory span recorder for the traced run.
//!
//! Each span is a name, a start and end on one clock, the span that
//! caused it, the op it belongs to and the thread (rank) it ran on. Spans
//! are kept in memory and written once, at exit, as a chrome trace. A
//! span's self time is its duration minus the part of it that its child
//! spans cover, so a layer's own cost is separated from the layers it
//! calls.

use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub op: u64,
    pub parent: Option<SpanId>,
    pub tid: usize,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Spans {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
    }

    /// Run `f` inside a span; `f` receives the span's id so it can parent
    /// the spans of the calls it makes.
    pub fn time<R>(
        &self,
        name: &str,
        op: u64,
        parent: Option<SpanId>,
        tid: usize,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = {
            let start = self.now();
            let mut spans = self.lock();
            spans.push(Span {
                name: name.to_string(),
                op,
                parent,
                tid,
                start,
                end: f64::NAN,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.now();
        self.lock()[id].end = end;
        out
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals (children on other threads may overlap each other).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut iv)| {
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for (a, b) in iv {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// The spans as a chrome trace (`chrome://tracing`, ui.perfetto.dev).
pub fn chrome_trace(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"op\":{},\"parent\":{parent}}}}}",
                s.name,
                s.tid,
                s.start * 1e6,
                s.duration() * 1e6,
                s.op
            )
        })
        .collect();
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mk = |start, end, parent| Span {
            name: String::new(),
            op: 0,
            parent,
            tid: 0,
            start,
            end,
        };
        // Two overlapping children (other threads) and one sequential.
        let spans = vec![
            mk(0.0, 10.0, None),
            mk(1.0, 4.0, Some(0)),
            mk(2.0, 5.0, Some(0)),
            mk(6.0, 7.0, Some(0)),
        ];
        let st = self_times(&spans);
        assert!((st[0] - 5.0).abs() < 1e-12, "{}", st[0]);
        assert!((st[1] - 3.0).abs() < 1e-12);
    }
}
