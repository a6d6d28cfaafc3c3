//! HPX-style performance counters.
//!
//! HPX exposes a hierarchical performance-counter interface
//! (`/threads{locality#0/total}/count/cumulative`, …) that the paper's
//! conclusion names as the tool for future performance analysis (together
//! with APEX).  This module provides the equivalent observability for the
//! Rust runtime: cheap relaxed atomic counters, snapshot/reset semantics,
//! and stable names.
//!
//! Two blocks live here, each declared once with `counter_block!` as a
//! list of `field => "/name"` lines: [`Counters`] (one per runtime and per
//! locality) and [`ParcelCounters`] (the one process-wide block, behind
//! [`parcel_counters`]).  Every other counted event is counted once, on the
//! object that owns it (a buffer pool, a gravity solver, a tuner, a
//! simulation), and published by name through `Simulation::counters`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Declare a counter block: every line is one counter, `field => "/name"`.
/// Generates the atomic block (`new`, `snapshot`, `reset`) and its
/// plain-data snapshot (`since`, `entries`, `Display`, and a field-wise
/// `+`, so no sum can skip a counter).
macro_rules! counter_block {
    (
        $(#[$block_doc:meta])*
        $block:ident,
        $(#[$snap_doc:meta])*
        $snap:ident {
            $( $(#[$field_doc:meta])* $field:ident => $name:literal, )+
        }
    ) => {
        $(#[$block_doc])*
        ///
        /// All increments use `Ordering::Relaxed`: the counters are
        /// monotonic statistics, not synchronization devices.
        #[derive(Debug, Default)]
        pub struct $block {
            $( $(#[$field_doc])* pub(crate) $field: AtomicU64, )+
        }

        impl $block {
            /// New zeroed counter block.
            pub const fn new() -> Self {
                Self { $( $field: AtomicU64::new(0), )+ }
            }

            /// Consistent-enough snapshot of all counters.
            pub fn snapshot(&self) -> $snap {
                $snap { $( $field: self.$field.load(Ordering::Relaxed), )+ }
            }

            /// Reset every counter to zero (HPX's `reset_active_counters`).
            pub fn reset(&self) {
                $( self.$field.store(0, Ordering::Relaxed); )+
            }
        }

        $(#[$snap_doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $snap {
            $( $(#[$field_doc])* pub $field: u64, )+
        }

        impl $snap {
            /// Counter deltas `self - earlier` (saturating, counters are
            /// monotonic).
            pub fn since(&self, earlier: &Self) -> Self {
                Self { $( $field: self.$field.saturating_sub(earlier.$field), )+ }
            }

            /// Every counter as `(name, value)`, in declaration order.
            pub fn entries(&self) -> Vec<(&'static str, u64)> {
                vec![ $( ($name, self.$field), )+ ]
            }
        }

        impl std::ops::Add for $snap {
            type Output = Self;

            fn add(self, other: Self) -> Self {
                Self { $( $field: self.$field + other.$field, )+ }
            }
        }

        impl std::fmt::Display for $snap {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                let lines: Vec<String> = self
                    .entries()
                    .iter()
                    .map(|(name, value)| format!("{name:<40} {value}"))
                    .collect();
                f.write_str(&lines.join("\n"))
            }
        }
    };
}

counter_block! {
    /// Cumulative counters for one runtime or one locality.
    Counters,
    /// Plain-data snapshot of [`Counters`], suitable for diffing across a
    /// measured region.
    CountersSnapshot {
        /// Tasks that finished executing.
        tasks_executed => "/threads/count/cumulative",
        /// Tasks handed to the scheduler (`hpx::async`, continuations,
        /// parcels).
        tasks_spawned => "/threads/count/spawned",
        /// Tasks obtained by stealing from another worker's deque.
        tasks_stolen => "/threads/count/stolen",
        /// Times a worker went to sleep for lack of work (starvation signal
        /// — the quantity the paper's Section VII-C multipole splitting
        /// attacks).
        worker_parks => "/threads/count/parked",
        /// Blocked-worker watchdog fires: a worker sat on an unresolved
        /// future past the `BLOCKED_WAIT_TIMEOUT_MS` timeout with
        /// nothing to help with.  Bumped just before the watchdog panic
        /// unwinds, so post-mortem counter dumps show how often the
        /// deadlock detector tripped.
        watchdog_fires => "/threads/count/watchdog-fires",
        /// Futures created through a runtime (`async_call`, `then`,
        /// `when_all`, `when_all_of`) or, on a locality's block, as the
        /// reply of a parcel it sent.
        futures_created => "/lcos/count/futures",
        /// Continuations attached via `Future::then`.
        continuations_attached => "/lcos/count/continuations",
        /// Parcels sent to a *different* locality.
        parcels_sent => "/parcels/count/sent",
        /// Payload bytes in those parcels.
        parcel_bytes => "/parcels/bytes/sent",
        /// Remote-action invocations that were short-circuited locally
        /// (the Section VII-B direct-memory-access communication
        /// optimization).
        local_direct_accesses => "/parcels/count/local-direct",
    }
}

impl Counters {
    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// The kind of cross-locality traffic a parcel carries.
///
/// Every class maps to one leg of the distributed stepper: ghost-zone
/// pack/unpack payloads, the FMM halo traffic of the gravity solve
/// (multipole up-pass, M2L flat-source gathers, local-expansion down-pass,
/// P2P point-mass contributions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParcelClass {
    /// Ghost-zone payloads (`ghost_pack` actions).
    Ghost,
    /// Multipole moments sent child-owner → parent-owner in the up-pass.
    MultipoleUp,
    /// Multipole moments gathered for remote M2L source slots.
    M2l,
    /// Local expansions sent parent-owner → child-owner in the down-pass.
    MultipoleDown,
    /// Point masses for remote P2P source leaves.
    P2p,
}

counter_block! {
    /// Counters of the distributed stepper's typed parcel traffic, one
    /// count/bytes pair per [`ParcelClass`].
    ///
    /// This is the one *process-wide* block ([`parcel_counters`]): every
    /// parcel sender in the process (the ghost exchange's action parcels,
    /// the gravity solve's halo exchanges) reports into it, so "the N=1
    /// reference path sends zero parcels" is a single-snapshot assertion —
    /// and two simulations in one process share it.  Per-locality raw
    /// parcel counts remain on each locality's [`Counters`].
    ParcelCounters,
    /// Plain-data snapshot of [`ParcelCounters`].
    ParcelSnapshot {
        /// Ghost-zone parcels.
        ghost_count => "/octotiger/parcels/ghost/count",
        /// Ghost-zone payload bytes.
        ghost_bytes => "/octotiger/parcels/ghost/bytes",
        /// Up-pass multipole parcels.
        multipole_up_count => "/octotiger/parcels/multipole-up/count",
        /// Up-pass multipole payload bytes.
        multipole_up_bytes => "/octotiger/parcels/multipole-up/bytes",
        /// M2L halo-gather parcels.
        m2l_count => "/octotiger/parcels/m2l/count",
        /// M2L halo-gather payload bytes.
        m2l_bytes => "/octotiger/parcels/m2l/bytes",
        /// Down-pass local-expansion parcels.
        multipole_down_count => "/octotiger/parcels/multipole-down/count",
        /// Down-pass local-expansion payload bytes.
        multipole_down_bytes => "/octotiger/parcels/multipole-down/bytes",
        /// P2P point-mass parcels.
        p2p_count => "/octotiger/parcels/p2p/count",
        /// P2P point-mass payload bytes.
        p2p_bytes => "/octotiger/parcels/p2p/bytes",
    }
}

impl ParcelCounters {
    /// Record one parcel of `class` carrying `bytes` payload bytes.
    pub fn note_send(&self, class: ParcelClass, bytes: u64) {
        let (count, total) = match class {
            ParcelClass::Ghost => (&self.ghost_count, &self.ghost_bytes),
            ParcelClass::MultipoleUp => (&self.multipole_up_count, &self.multipole_up_bytes),
            ParcelClass::M2l => (&self.m2l_count, &self.m2l_bytes),
            ParcelClass::MultipoleDown => (&self.multipole_down_count, &self.multipole_down_bytes),
            ParcelClass::P2p => (&self.p2p_count, &self.p2p_bytes),
        };
        Counters::bump(count);
        Counters::add(total, bytes);
    }
}

/// The process-global [`ParcelCounters`] block every parcel sender
/// reports into.
pub fn parcel_counters() -> &'static ParcelCounters {
    static GLOBAL: ParcelCounters = ParcelCounters::new();
    &GLOBAL
}

impl ParcelSnapshot {
    /// Total parcels across every class.
    pub fn total_count(&self) -> u64 {
        self.ghost_count + self.gravity_count()
    }

    /// Total payload bytes across every class.
    pub fn total_bytes(&self) -> u64 {
        self.ghost_bytes
            + self.multipole_up_bytes
            + self.m2l_bytes
            + self.multipole_down_bytes
            + self.p2p_bytes
    }

    /// Parcels of the gravity halo classes only (everything but ghosts).
    pub fn gravity_count(&self) -> u64 {
        self.multipole_up_count + self.m2l_count + self.multipole_down_count + self.p2p_count
    }
}

/// `name` qualified with an HPX counter instance after its object segment:
/// `/threads/count/stolen` on `locality#1` is
/// `/threads{locality#1}/count/stolen`.
pub(crate) fn instance_name(name: &str, instance: &str) -> String {
    let object_end = name[1..].find('/').map_or(name.len(), |i| i + 1);
    format!(
        "{}{{{instance}}}{}",
        &name[..object_end],
        &name[object_end..]
    )
}

/// The entries of a counter listing whose name matches `pattern`, where `*`
/// stands for any run of characters (HPX's counter-name wildcard):
/// `/octotiger/gravity/*`, `/threads{locality#*}/count/stolen`.
pub fn select(entries: &[(String, u64)], pattern: &str) -> Vec<(String, u64)> {
    entries
        .iter()
        .filter(|(name, _)| matches(pattern, name))
        .cloned()
        .collect()
}

fn matches(pattern: &str, name: &str) -> bool {
    let Some((head, tail)) = pattern.split_once('*') else {
        return pattern == name;
    };
    let Some(rest) = name.strip_prefix(head) else {
        return false;
    };
    // The `*` may swallow any prefix of what remains.
    (0..=rest.len())
        .filter(|&i| rest.is_char_boundary(i))
        .any(|i| matches(tail, &rest[i..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_add_snapshot() {
        let c = Counters::new();
        Counters::bump(&c.tasks_spawned);
        Counters::bump(&c.tasks_spawned);
        Counters::add(&c.parcel_bytes, 1024);
        let s = c.snapshot();
        assert_eq!(s.tasks_spawned, 2);
        assert_eq!(s.parcel_bytes, 1024);
        assert_eq!(s.tasks_executed, 0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let c = Counters::new();
        Counters::add(&c.parcels_sent, 5);
        c.reset();
        assert_eq!(c.snapshot(), CountersSnapshot::default());
    }

    #[test]
    fn since_computes_deltas() {
        let a = CountersSnapshot {
            tasks_spawned: 10,
            ..Default::default()
        };
        let b = CountersSnapshot {
            tasks_spawned: 25,
            ..Default::default()
        };
        assert_eq!(b.since(&a).tasks_spawned, 15);
        // Saturates instead of panicking if snapshots are swapped.
        assert_eq!(a.since(&b).tasks_spawned, 0);
    }

    #[test]
    fn entries_and_display_carry_the_declared_names() {
        let c = Counters::new();
        Counters::add(&c.parcel_bytes, 7);
        let s = c.snapshot();
        assert_eq!(s.entries().len(), 10);
        assert!(s.entries().contains(&("/parcels/bytes/sent", 7)));
        let text = format!("{s}");
        assert_eq!(text.lines().count(), 10);
        assert!(text.contains("/threads/count/cumulative"));
        assert!(text
            .lines()
            .any(|l| l.starts_with("/parcels/bytes/sent") && l.ends_with(" 7")));
    }

    #[test]
    fn parcel_counters_count_per_class_under_their_names() {
        let c = ParcelCounters::new();
        c.note_send(ParcelClass::Ghost, 128);
        c.note_send(ParcelClass::Ghost, 64);
        c.note_send(ParcelClass::M2l, 320);
        c.note_send(ParcelClass::MultipoleUp, 320);
        c.note_send(ParcelClass::MultipoleDown, 320);
        c.note_send(ParcelClass::P2p, 96);
        let s = c.snapshot();
        assert_eq!((s.ghost_count, s.ghost_bytes), (2, 192));
        assert_eq!((s.m2l_count, s.m2l_bytes), (1, 320));
        assert_eq!((s.multipole_up_count, s.multipole_up_bytes), (1, 320));
        assert_eq!((s.multipole_down_count, s.multipole_down_bytes), (1, 320));
        assert_eq!((s.p2p_count, s.p2p_bytes), (1, 96));
        assert_eq!(s.total_count(), 6);
        assert_eq!(s.total_bytes(), 192 + 320 * 3 + 96);
        assert_eq!(s.gravity_count(), 4);
        let entries = s.entries();
        assert!(entries.contains(&("/octotiger/parcels/ghost/bytes", 192)));
        assert!(entries.contains(&("/octotiger/parcels/m2l/count", 1)));
        assert!(entries.contains(&("/octotiger/parcels/p2p/bytes", 96)));
        c.reset();
        assert_eq!(c.snapshot(), ParcelSnapshot::default());
    }

    #[test]
    fn parcel_snapshot_deltas_saturate() {
        let a = ParcelSnapshot {
            ghost_count: 4,
            ghost_bytes: 100,
            ..Default::default()
        };
        let b = ParcelSnapshot {
            ghost_count: 9,
            ghost_bytes: 260,
            m2l_count: 1,
            m2l_bytes: 40,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!((d.ghost_count, d.ghost_bytes), (5, 160));
        assert_eq!((d.m2l_count, d.m2l_bytes), (1, 40));
        assert_eq!(a.since(&b), ParcelSnapshot::default());
    }

    #[test]
    fn global_parcel_counters_are_monotonic() {
        let g = parcel_counters();
        let before = g.snapshot();
        g.note_send(ParcelClass::Ghost, 8);
        g.note_send(ParcelClass::P2p, 24);
        let delta = g.snapshot().since(&before);
        assert!(delta.ghost_count >= 1);
        assert!(delta.ghost_bytes >= 8);
        assert!(delta.p2p_count >= 1);
    }

    #[test]
    fn instance_names_and_wildcards() {
        assert_eq!(
            instance_name("/threads/count/stolen", "locality#1"),
            "/threads{locality#1}/count/stolen"
        );
        let listing: Vec<(String, u64)> = [
            ("/octotiger/gravity/plan-hits", 3),
            ("/octotiger/regrid/refined", 8),
            ("/threads{locality#0}/count/stolen", 1),
            ("/threads{locality#1}/count/stolen", 2),
        ]
        .map(|(n, v)| (n.to_owned(), v))
        .into();
        let names = |pattern: &str| -> Vec<u64> {
            select(&listing, pattern).into_iter().map(|e| e.1).collect()
        };
        assert_eq!(names("*"), vec![3, 8, 1, 2]);
        assert_eq!(names("/octotiger/gravity/*"), vec![3]);
        assert_eq!(names("/threads{locality#*}/count/stolen"), vec![1, 2]);
        assert_eq!(names("/octotiger/*/refined"), vec![8]);
        assert_eq!(names("/octotiger/regrid/refined"), vec![8]);
        assert_eq!(names("/octotiger/regrid"), Vec::<u64>::new());
    }
}
