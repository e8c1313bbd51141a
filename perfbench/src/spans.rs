//! Spans the benchmark records around its own calls into each crate's
//! public API, kept in memory and written out when the run ends.

use nti_obs::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// The API call, e.g. `Cluster::advance_until`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

/// An append-only span list with one time origin.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    /// Record a finished call that started at `start` and took `dur`;
    /// returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        dur: Duration,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
        self.spans.len() - 1
    }

    /// Time `f` as a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let t0 = Instant::now();
        let r = f();
        self.record(name, parent, t0, t0.elapsed());
        r
    }

    /// Open a span whose duration is filled in by [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        self.record(name, parent, Instant::now(), Duration::ZERO)
    }

    /// Close a span opened with [`Spans::open`].
    pub fn close(&mut self, idx: usize) {
        let end = self.origin.elapsed().as_nanos() as u64;
        let s = &mut self.spans[idx];
        s.dur_ns = end.saturating_sub(s.start_ns);
    }

    /// Per-name call count, total and self time (ms): a span's self time
    /// is its duration minus what its children cover.
    pub fn summary(&self) -> Json {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut by: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let e = by.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns;
            e.2 += s.dur_ns.saturating_sub(*child);
        }
        Json::obj(by.into_iter().map(|(name, (n, total, own))| {
            (
                name,
                Json::obj([
                    ("calls", Json::num(n as f64)),
                    ("total_ms", Json::num(total as f64 / 1e6)),
                    ("self_ms", Json::num(own as f64 / 1e6)),
                ]),
            )
        }))
    }

    /// Write `header` as the first line, then every span as one JSON
    /// line.
    pub fn write_jsonl(&self, path: &Path, header: &Json) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{header}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::num(i as f64)),
                ("name", Json::str(s.name)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                ),
                ("start_ns", Json::num(s.start_ns as f64)),
                ("dur_ns", Json::num(s.dur_ns as f64)),
            ]);
            writeln!(w, "{line}")?;
        }
        w.flush()
    }
}
