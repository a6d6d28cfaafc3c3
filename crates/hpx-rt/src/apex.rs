//! APEX-style autonomic performance instrumentation.
//!
//! The paper's conclusion: *"To further analyze the code performance, more
//! runs using HPX's performance counters or Autonomous Performance
//! Environment for Exascale (APEX) are needed"* (reference \[38\]; the same
//! group's follow-up uses APEX for combined CPU/GPU profiling of HPX).
//! This module is that layer for the Rust runtime: named timers with
//! hierarchical task categories, aggregated statistics (count / total /
//! mean / max), and a chrome-tracing-compatible JSON export for offline
//! inspection.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Aggregated statistics of one named timer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimerStats {
    /// Number of completed measurements.
    pub count: u64,
    /// Total accumulated seconds.
    pub total_s: f64,
    /// Longest single measurement.
    pub max_s: f64,
    /// Measurements since the last [`Apex::reset_window`].
    pub window_count: u64,
    /// Seconds accumulated since the last [`Apex::reset_window`].
    pub window_total_s: f64,
}

impl TimerStats {
    /// Mean seconds per measurement (0 when never fired).
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_s / self.count as f64
        }
    }

    /// Mean seconds per measurement inside the current window (0 when the
    /// window is empty).  The lifetime [`mean_s`](Self::mean_s) dilutes
    /// recent samples into the whole history, so a consumer changing a
    /// launch configuration could never see the change take effect; the
    /// window mean is the feedback signal an online tuner reads, with
    /// [`Apex::reset_window`] closing one observation window per decision.
    pub fn window_mean_s(&self) -> f64 {
        if self.window_count == 0 {
            0.0
        } else {
            self.window_total_s / self.window_count as f64
        }
    }
}

#[derive(Debug, Clone)]
struct TraceEvent {
    name: &'static str,
    start_us: u64,
    duration_us: u64,
    thread: String,
}

struct ApexInner {
    stats: Mutex<HashMap<&'static str, TimerStats>>,
    trace: Mutex<Vec<TraceEvent>>,
    epoch: Instant,
    tracing: bool,
}

/// An APEX-style profiler instance.
///
/// Cheap to clone (shared).  Timers are scoped guards: drop = stop.
#[derive(Clone)]
pub struct Apex {
    inner: Arc<ApexInner>,
}

impl Default for Apex {
    fn default() -> Self {
        Self::new(false)
    }
}

impl Apex {
    /// New profiler.  `tracing` additionally records every measurement as
    /// a trace event (higher overhead, exportable).
    pub fn new(tracing: bool) -> Apex {
        Apex {
            inner: Arc::new(ApexInner {
                stats: Mutex::new(HashMap::new()),
                trace: Mutex::new(Vec::new()),
                epoch: Instant::now(),
                tracing,
            }),
        }
    }

    /// Start a scoped timer for `name`; stops when the guard drops.
    pub fn timer(&self, name: &'static str) -> TimerGuard {
        TimerGuard {
            apex: self.clone(),
            name,
            start: Instant::now(),
        }
    }

    /// Record one externally-measured duration.
    pub(crate) fn record(&self, name: &'static str, seconds: f64) {
        let mut stats = self.inner.stats.lock();
        let entry = stats.entry(name).or_default();
        entry.count += 1;
        entry.total_s += seconds;
        if seconds > entry.max_s {
            entry.max_s = seconds;
        }
        entry.window_count += 1;
        entry.window_total_s += seconds;
    }

    /// Close the current observation window of one timer: zero its window
    /// fields while leaving the lifetime aggregate untouched.  No-op for a
    /// timer that never fired.
    pub fn reset_window(&self, name: &str) {
        if let Some(entry) = self.inner.stats.lock().get_mut(name) {
            entry.window_count = 0;
            entry.window_total_s = 0.0;
        }
    }

    fn record_trace(&self, name: &'static str, start: Instant, seconds: f64) {
        if !self.inner.tracing {
            return;
        }
        let start_us = start
            .duration_since(self.inner.epoch)
            .as_micros()
            .min(u128::from(u64::MAX)) as u64;
        self.inner.trace.lock().push(TraceEvent {
            name,
            start_us,
            duration_us: (seconds * 1e6) as u64,
            thread: format!("{:?}", std::thread::current().id()),
        });
    }

    /// Snapshot of one timer's statistics.
    pub fn stats(&self, name: &str) -> TimerStats {
        self.inner
            .stats
            .lock()
            .get(name)
            .copied()
            .unwrap_or_default()
    }

    /// All timers, sorted by total time descending (an APEX "task summary").
    pub fn summary(&self) -> Vec<(&'static str, TimerStats)> {
        let mut out: Vec<(&'static str, TimerStats)> = self
            .inner
            .stats
            .lock()
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect();
        out.sort_by(|a, b| b.1.total_s.partial_cmp(&a.1.total_s).expect("finite"));
        out
    }

    /// Render the summary as an APEX-like text table.
    pub fn summary_table(&self) -> String {
        use std::fmt::Write;
        let mut s = String::from(
            "timer                                    count      total(s)     mean(s)      max(s)\n",
        );
        for (name, st) in self.summary() {
            writeln!(
                s,
                "{name:40} {:>6} {:>12.6} {:>11.3e} {:>11.3e}",
                st.count,
                st.total_s,
                st.mean_s(),
                st.max_s
            )
            .expect("write to string");
        }
        s
    }

    /// Export recorded trace events in the chrome://tracing JSON array
    /// format (APEX's OTF2 stand-in).
    pub fn chrome_trace_json(&self) -> String {
        let trace = self.inner.trace.lock();
        let mut parts = Vec::with_capacity(trace.len());
        for e in trace.iter() {
            parts.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":\"{}\"}}",
                e.name, e.start_us, e.duration_us, e.thread
            ));
        }
        format!("[{}]", parts.join(","))
    }

    /// Drop all recorded data.
    pub fn reset(&self) {
        self.inner.stats.lock().clear();
        self.inner.trace.lock().clear();
    }
}

/// Scoped timer guard: measures from creation to drop.
pub struct TimerGuard {
    apex: Apex,
    name: &'static str,
    start: Instant,
}

impl Drop for TimerGuard {
    fn drop(&mut self) {
        let seconds = self.start.elapsed().as_secs_f64();
        self.apex.record(self.name, seconds);
        self.apex.record_trace(self.name, self.start, seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_records_on_drop() {
        let apex = Apex::new(false);
        {
            let _t = apex.timer("kernel:hydro");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let st = apex.stats("kernel:hydro");
        assert_eq!(st.count, 1);
        assert!(st.total_s >= 0.002);
        assert!(st.max_s >= 0.002);
    }

    #[test]
    fn record_aggregates() {
        let apex = Apex::new(false);
        apex.record("x", 1.0);
        apex.record("x", 3.0);
        let st = apex.stats("x");
        assert_eq!(st.count, 2);
        assert_eq!(st.total_s, 4.0);
        assert_eq!(st.mean_s(), 2.0);
        assert_eq!(st.max_s, 3.0);
    }

    #[test]
    fn summary_sorted_by_total() {
        let apex = Apex::new(false);
        apex.record("small", 0.1);
        apex.record("big", 5.0);
        let summary = apex.summary();
        assert_eq!(summary[0].0, "big");
        let table = apex.summary_table();
        assert!(table.contains("big"));
        assert!(table.contains("count"));
    }

    #[test]
    fn chrome_trace_export() {
        let apex = Apex::new(true);
        {
            let _t = apex.timer("traced");
        }
        let json = apex.chrome_trace_json();
        assert!(json.starts_with('['));
        assert!(json.contains("\"traced\""));
        assert!(json.contains("\"ph\":\"X\""));
        // Valid JSON.
        let _parsed: serde_json_check::Value = serde_json_check::from_str(&json);
    }

    // Minimal local JSON validity check without adding a dependency to the
    // crate: reuse the fact that chrome traces are a flat array of objects
    // with quoted keys — parse with a tiny recursive-descent checker.
    mod serde_json_check {
        pub struct Value;
        pub fn from_str(s: &str) -> Value {
            let bytes = s.as_bytes();
            let mut pos = 0usize;
            skip_value(bytes, &mut pos);
            skip_ws(bytes, &mut pos);
            assert_eq!(pos, bytes.len(), "trailing garbage in JSON");
            Value
        }
        fn skip_ws(b: &[u8], p: &mut usize) {
            while *p < b.len() && (b[*p] as char).is_whitespace() {
                *p += 1;
            }
        }
        fn skip_value(b: &[u8], p: &mut usize) {
            skip_ws(b, p);
            match b[*p] {
                b'[' => {
                    *p += 1;
                    skip_ws(b, p);
                    if b[*p] == b']' {
                        *p += 1;
                        return;
                    }
                    loop {
                        skip_value(b, p);
                        skip_ws(b, p);
                        match b[*p] {
                            b',' => *p += 1,
                            b']' => {
                                *p += 1;
                                return;
                            }
                            c => panic!("bad array sep {}", c as char),
                        }
                    }
                }
                b'{' => {
                    *p += 1;
                    skip_ws(b, p);
                    if b[*p] == b'}' {
                        *p += 1;
                        return;
                    }
                    loop {
                        skip_ws(b, p);
                        skip_string(b, p);
                        skip_ws(b, p);
                        assert_eq!(b[*p], b':');
                        *p += 1;
                        skip_value(b, p);
                        skip_ws(b, p);
                        match b[*p] {
                            b',' => *p += 1,
                            b'}' => {
                                *p += 1;
                                return;
                            }
                            c => panic!("bad object sep {}", c as char),
                        }
                    }
                }
                b'"' => skip_string(b, p),
                _ => {
                    while *p < b.len() && !b",]}".contains(&b[*p]) {
                        *p += 1;
                    }
                }
            }
        }
        fn skip_string(b: &[u8], p: &mut usize) {
            assert_eq!(b[*p], b'"');
            *p += 1;
            while b[*p] != b'"' {
                if b[*p] == b'\\' {
                    *p += 1;
                }
                *p += 1;
            }
            *p += 1;
        }
    }

    #[test]
    fn window_mean_observes_recent_changes_the_lifetime_mean_hides() {
        let apex = Apex::new(false);
        // A long "slow config" history...
        for _ in 0..100 {
            apex.record("k", 1.0);
        }
        apex.reset_window("k");
        // ...then a config change makes the kernel 10x faster.
        for _ in 0..3 {
            apex.record("k", 0.1);
        }
        let st = apex.stats("k");
        // The lifetime mean barely moves — it can never tell the tuner
        // that the change helped.
        assert!(st.mean_s() > 0.9, "lifetime mean = {}", st.mean_s());
        // The window mean is exactly the post-change behaviour.
        assert_eq!(st.window_count, 3);
        assert!((st.window_mean_s() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn reset_window_keeps_lifetime_aggregate() {
        let apex = Apex::new(false);
        apex.record("x", 1.0);
        apex.record("x", 3.0);
        apex.reset_window("x");
        let st = apex.stats("x");
        assert_eq!(st.count, 2);
        assert_eq!(st.total_s, 4.0);
        assert_eq!(st.window_count, 0);
        assert_eq!(st.window_mean_s(), 0.0);
        // Unknown names are a no-op, not an insertion.
        apex.reset_window("never-fired");
        assert_eq!(apex.stats("never-fired"), TimerStats::default());
    }

    #[test]
    fn reset_clears() {
        let apex = Apex::new(true);
        apex.record("x", 1.0);
        apex.reset();
        assert_eq!(apex.stats("x"), TimerStats::default());
        assert_eq!(apex.chrome_trace_json(), "[]");
    }

    #[test]
    fn shared_across_threads() {
        let apex = Apex::new(false);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let a = apex.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    a.record("mt", 0.001);
                }
            }));
        }
        for h in handles {
            h.join().expect("thread");
        }
        assert_eq!(apex.stats("mt").count, 400);
    }
}
