//! Payload contracts of the simulated MPI: modeled sizing and the
//! combined bound every message type satisfies.
//!
//! On the in-process transport payloads move as `Box<dyn Any>` — no
//! serialization — but every payload reports a [`WireSize`] so the
//! virtual clock can charge realistic transfer costs, and every payload
//! is [`WireEncode`]/[`WireDecode`] so the same call sites run unchanged
//! over byte-oriented transports (see [`crate::transport`]).

use hipmcl_sparse::wire::{WireDecode, WireEncode};
use std::any::Any;

/// Everything a message payload must satisfy: typed movement
/// (`Any + Send`), modeled sizing ([`WireSize`]) and byte movement
/// ([`WireEncode`] + [`WireDecode`]). Blanket-implemented — implement
/// the three component traits and this comes for free.
pub trait WirePayload: Any + Send + WireSize + WireEncode + WireDecode {}

impl<T: Any + Send + WireSize + WireEncode + WireDecode> WirePayload for T {}

/// Reports how many bytes a value would occupy on a real interconnect.
///
/// Implemented for the primitives and containers the upper layers ship
/// around. `Arc<T>` reports the size of the pointee: broadcasting a shared
/// matrix still costs full transfers on a real network even if this
/// simulation moves only a pointer.
pub trait WireSize {
    /// Serialized size in bytes.
    fn wire_bytes(&self) -> usize;
}

macro_rules! impl_wire_primitive {
    ($($t:ty),*) => {
        $(impl WireSize for $t {
            fn wire_bytes(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        })*
    };
}

impl_wire_primitive!(
    (),
    bool,
    u8,
    u16,
    u32,
    u64,
    usize,
    i8,
    i16,
    i32,
    i64,
    isize,
    f32,
    f64
);

impl<T: WireSize> WireSize for Vec<T> {
    fn wire_bytes(&self) -> usize {
        // Length prefix + elements. For primitive T this collapses to the
        // obvious `8 + n * size_of::<T>()` without a per-element virtual
        // call in practice (monomorphized).
        8 + self.iter().map(WireSize::wire_bytes).sum::<usize>()
    }
}

impl WireSize for String {
    fn wire_bytes(&self) -> usize {
        8 + self.len()
    }
}

impl<T: WireSize> WireSize for Option<T> {
    fn wire_bytes(&self) -> usize {
        1 + self.as_ref().map_or(0, WireSize::wire_bytes)
    }
}

impl<A: WireSize, B: WireSize> WireSize for (A, B) {
    fn wire_bytes(&self) -> usize {
        self.0.wire_bytes() + self.1.wire_bytes()
    }
}

impl<A: WireSize, B: WireSize, C: WireSize> WireSize for (A, B, C) {
    fn wire_bytes(&self) -> usize {
        self.0.wire_bytes() + self.1.wire_bytes() + self.2.wire_bytes()
    }
}

impl<T: WireSize> WireSize for std::sync::Arc<T> {
    fn wire_bytes(&self) -> usize {
        self.as_ref().wire_bytes()
    }
}

impl<T: hipmcl_sparse::Value> WireSize for hipmcl_sparse::Csc<T> {
    fn wire_bytes(&self) -> usize {
        self.bytes()
    }
}

impl<T: hipmcl_sparse::Value> WireSize for hipmcl_sparse::Triples<T> {
    fn wire_bytes(&self) -> usize {
        self.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn primitive_sizes() {
        assert_eq!(0u32.wire_bytes(), 4);
        assert_eq!(0.0f64.wire_bytes(), 8);
        assert_eq!(().wire_bytes(), 0);
    }

    #[test]
    fn vec_size_includes_length_prefix() {
        let v = vec![1u32, 2, 3];
        assert_eq!(v.wire_bytes(), 8 + 12);
        let empty: Vec<f64> = vec![];
        assert_eq!(empty.wire_bytes(), 8);
    }

    #[test]
    fn arc_reports_pointee_size() {
        let v = Arc::new(vec![0u64; 10]);
        assert_eq!(v.wire_bytes(), 8 + 80);
    }

    #[test]
    fn csc_reports_storage_size() {
        let m = hipmcl_sparse::Csc::<f64>::identity(4);
        assert_eq!(m.wire_bytes(), m.bytes());
        assert!(m.wire_bytes() > 0);
    }

    #[test]
    fn tuple_and_option() {
        assert_eq!((1u32, 2u64).wire_bytes(), 12);
        assert_eq!(Some(5u16).wire_bytes(), 3);
        assert_eq!(None::<u16>.wire_bytes(), 1);
    }
}
