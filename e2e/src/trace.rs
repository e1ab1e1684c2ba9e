//! Spans recorded by the benchmark's own code around calls into each
//! layer. Held in memory; written as JSON only when asked.
//!
//! The benchmark is a closed loop with one client, so spans of one
//! tracer never overlap: a span's children are disjoint sub-intervals
//! and its self time is its duration minus theirs.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Operation the span belongs to.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::enter`]; `None` inside when tracing is off.
#[must_use]
pub struct Open(Option<usize>);

/// Span recorder. With tracing off every call is a branch and nothing
/// else, so the untraced run pays nothing measurable for it.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Tags every span opened from now on with operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let end_ns = self.now_ns();
            assert_eq!(
                self.stack.pop(),
                Some(id),
                "spans must close innermost-first"
            );
            self.spans[id].end_ns = end_ns;
        }
    }

    /// Records `f` as a leaf span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Abandons spans left open by an operation that bailed out early,
    /// so the next operation's spans are not parented under them.
    pub fn unwind(&mut self) {
        let end_ns = self.now_ns();
        for id in self.stack.drain(..) {
            self.spans[id].end_ns = end_ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array of `{name, start_ns, end_ns, parent, op}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.op,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Where one kind of root span spent its time, summed over operations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    /// Root spans of this name.
    pub count: usize,
    pub total_ns: u64,
    /// Root time no child covers.
    pub self_ns: u64,
    /// Self time per descendant span name.
    pub layers: BTreeMap<&'static str, u64>,
}

impl Breakdown {
    /// Share of the root's time no span below it accounts for.
    pub fn unattributed(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.self_ns as f64 / self.total_ns as f64
    }
}

/// Per-root-name breakdown over all recorded spans.
pub fn breakdowns(spans: &[Span]) -> BTreeMap<&'static str, Breakdown> {
    let own = self_times(spans);
    // Spans are stored in opening order, so a parent precedes its
    // children and one forward pass resolves every span's root.
    let mut root_of = vec![0usize; spans.len()];
    let mut out: BTreeMap<&'static str, Breakdown> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            None => {
                root_of[i] = i;
                let b = out.entry(s.name).or_default();
                b.count += 1;
                b.total_ns += s.duration_ns();
                b.self_ns += own[i];
            }
            Some(p) => {
                root_of[i] = root_of[p];
                let b = out.entry(spans[root_of[i]].name).or_default();
                *b.layers.entry(s.name).or_default() += own[i];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn breakdown_sums_to_the_root_and_groups_by_root_name() {
        let spans = [
            span("save", 0, 100, None),
            span("core.compress", 0, 60, Some(0)),
            span("store.save_full", 60, 95, Some(0)),
            span("replay", 100, 400, None),
            span("core.compress", 100, 300, Some(3)),
            span("save", 400, 500, None),
            span("core.compress", 400, 470, Some(5)),
        ];
        let b = breakdowns(&spans);
        let save = &b["save"];
        assert_eq!((save.count, save.total_ns, save.self_ns), (2, 200, 35));
        assert_eq!(save.layers["core.compress"], 130);
        assert_eq!(save.layers["store.save_full"], 35);
        assert_eq!(
            save.self_ns + save.layers.values().sum::<u64>(),
            save.total_ns
        );
        assert!((save.unattributed() - 0.175).abs() < 1e-12);
        assert_eq!(b["replay"].layers["core.compress"], 200);
    }

    #[test]
    fn tracer_nests_and_is_inert_when_off() {
        let mut off = Tracer::new(false);
        let o = off.enter("x");
        off.exit(o);
        assert_eq!(off.span("y", || 7), 7);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        on.set_op(3);
        let root = on.enter("root");
        on.span("leaf", || ());
        on.exit(root);
        let s = on.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent, s[1].op), (None, Some(0), 3));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(on.to_json().contains("\"name\":\"leaf\""));
    }

    #[test]
    fn unwind_closes_abandoned_spans() {
        let mut t = Tracer::new(true);
        let _root = t.enter("root");
        let _leaf = t.enter("leaf");
        t.unwind();
        let next = t.enter("next");
        t.exit(next);
        assert_eq!(t.spans()[2].parent, None);
    }
}
