//! Typed parcel transport between simulated localities.
//!
//! The distributed stepper moves four kinds of FMM halo traffic plus the
//! ghost-zone payloads between localities (see
//! [`crate::counters::ParcelClass`]).  This module is the common carrier:
//! a full mesh of HPX-style [`mod@crate::channel`] lanes, one per ordered
//! `(from, to)` locality pair, moving [`TypedParcel`]s whose payload type
//! is chosen by the caller (the solver ships pooled `Recycled<f64>`
//! buffers so parcel serialization recycles like every other scratch
//! buffer).
//!
//! Every send is metered into the process-global
//! `/octotiger/parcels/{class}/{count,bytes}` counters
//! ([`crate::counters::parcel_counters`]) — the distributed-equivalence
//! suite asserts they stay at zero on the single-locality reference path,
//! proving the local fast path never pays transport costs.
//!
//! Local sends (`from == to`) are a protocol violation and panic: callers
//! must keep the direct-access fast path for local traffic, exactly like
//! the Section VII-B communication optimization for ghost zones.

use crate::channel::{channel, Receiver, Sender};
use crate::counters::{parcel_counters, ParcelClass};
use crate::future::Future;

/// One class-tagged payload in flight between two localities.
///
/// `Clone` exists for test convenience (`Future::get`); transport
/// consumers use `Future::with_value`/`try_receive` to avoid copying
/// pooled payloads.
#[derive(Debug, Clone)]
pub struct TypedParcel<T> {
    /// What kind of halo traffic this is.
    pub class: ParcelClass,
    /// Sending locality index.
    pub from: usize,
    /// Destination locality index.
    pub to: usize,
    /// Serialized payload size (what the wire would carry).
    pub bytes: usize,
    /// The payload itself.
    pub payload: T,
}

/// A full mesh of typed parcel lanes over `n` localities.
///
/// Lanes are independent FIFO channels: parcels between one ordered pair
/// arrive in send order, parcels on different lanes are unordered — the
/// same guarantees a real parcelport gives, which is why every consumer
/// folds received values in a plan-frozen order rather than arrival
/// order.
pub struct ParcelTransport<T> {
    lanes: Vec<Vec<Lane<T>>>,
}

/// One ordered `(from, to)` FIFO lane of the mesh.
type Lane<T> = (Sender<TypedParcel<T>>, Receiver<TypedParcel<T>>);

impl<T: Send + 'static> ParcelTransport<T> {
    /// A fresh mesh over `n` localities.
    pub fn new(n: usize) -> Self {
        let lanes = (0..n)
            .map(|_| (0..n).map(|_| channel()).collect())
            .collect();
        ParcelTransport { lanes }
    }

    /// Number of localities in the mesh.
    pub fn num_localities(&self) -> usize {
        self.lanes.len()
    }

    /// Send one `class` parcel of `bytes` payload bytes from locality
    /// `from` to locality `to`, bumping the global parcel counters.
    ///
    /// # Panics
    ///
    /// Panics on a local send (`from == to`): local traffic must use the
    /// direct fast path and never be metered as a parcel.
    pub fn send(&self, from: usize, to: usize, class: ParcelClass, bytes: usize, payload: T) {
        assert_ne!(
            from, to,
            "local parcel send ({from} -> {to}): use the direct fast path"
        );
        parcel_counters().note_send(class, bytes as u64);
        self.lanes[from][to].0.send(TypedParcel {
            class,
            from,
            to,
            bytes,
            payload,
        });
    }

    /// A future for the next parcel on the `(from, to)` lane.
    pub fn receive(&self, from: usize, to: usize) -> Future<TypedParcel<T>> {
        self.lanes[from][to].1.receive()
    }

    /// Non-blocking poll of the `(from, to)` lane.
    pub fn try_receive(&self, from: usize, to: usize) -> Option<TypedParcel<T>> {
        self.lanes[from][to].1.try_receive()
    }

    /// Parcels queued on the `(from, to)` lane.
    pub fn queued(&self, from: usize, to: usize) -> usize {
        self.lanes[from][to].1.queued()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_are_independent_fifos() {
        let t = ParcelTransport::<Vec<f64>>::new(3);
        t.send(0, 1, ParcelClass::M2l, 16, vec![1.0]);
        t.send(0, 1, ParcelClass::M2l, 16, vec![2.0]);
        t.send(2, 1, ParcelClass::P2p, 8, vec![3.0]);
        assert_eq!(t.queued(0, 1), 2);
        assert_eq!(t.queued(2, 1), 1);
        assert_eq!(t.queued(1, 0), 0);
        assert_eq!(t.receive(0, 1).get().payload, vec![1.0]);
        assert_eq!(t.receive(0, 1).get().payload, vec![2.0]);
        let p = t.try_receive(2, 1).expect("queued");
        assert_eq!(
            (p.class, p.from, p.to, p.bytes),
            (ParcelClass::P2p, 2, 1, 8)
        );
    }

    #[test]
    fn sends_are_metered_per_class() {
        let before = parcel_counters().snapshot();
        let t = ParcelTransport::<Vec<f64>>::new(2);
        t.send(0, 1, ParcelClass::MultipoleUp, 320, vec![0.0; 40]);
        t.send(1, 0, ParcelClass::MultipoleDown, 320, vec![0.0; 40]);
        t.send(0, 1, ParcelClass::Ghost, 64, vec![0.0; 8]);
        let delta = parcel_counters().snapshot().since(&before);
        assert!(delta.multipole_up_count >= 1 && delta.multipole_up_bytes >= 320);
        assert!(delta.multipole_down_count >= 1 && delta.multipole_down_bytes >= 320);
        assert!(delta.ghost_count >= 1 && delta.ghost_bytes >= 64);
    }

    #[test]
    #[should_panic(expected = "use the direct fast path")]
    fn local_sends_are_rejected() {
        let t = ParcelTransport::<Vec<f64>>::new(2);
        t.send(1, 1, ParcelClass::Ghost, 8, vec![0.0]);
    }
}
