//! Counting global allocator with per-layer attribution.
//!
//! Every allocation (and every `realloc`, which may move and copy) is
//! charged to the calling thread's current layer — the innermost
//! wrapped call on its stack, as tracked by [`crate::span`]; an
//! untraced run charges its whole thread to one layer with
//! [`crate::span::charge`]. The counts depend only on what the program
//! does, not on timing, so on a single-threaded sim run they repeat
//! exactly from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::span::{current_layer, Layer, LAYERS};

/// The benchmark binary's global allocator: the system allocator plus
/// two relaxed counters per layer.
pub struct Counting;

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static COUNT: [AtomicU64; LAYERS] = [ZERO; LAYERS];
static BYTES: [AtomicU64; LAYERS] = [ZERO; LAYERS];

#[inline]
fn note(size: usize) {
    let l = current_layer();
    // Relaxed: these are statistics and publish no other data.
    COUNT[l].fetch_add(1, Ordering::Relaxed);
    BYTES[l].fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting reads a
// const-initialised thread-local `Cell` and bumps atomics, neither of
// which allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System` above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation counts and bytes per layer at one instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocations per layer.
    pub count: [u64; LAYERS],
    /// Bytes requested per layer.
    pub bytes: [u64; LAYERS],
}

/// Reads the counters.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        count: std::array::from_fn(|i| COUNT[i].load(Ordering::Relaxed)),
        bytes: std::array::from_fn(|i| BYTES[i].load(Ordering::Relaxed)),
    }
}

impl AllocSnapshot {
    /// What happened between `earlier` and `self`, leaving out
    /// [`Layer::Outside`]: allocations no wrapped call owns, which
    /// include other threads' (a test harness, a transport's reader
    /// threads) and so do not repeat exactly.
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        let mut d = AllocSnapshot {
            count: std::array::from_fn(|i| self.count[i] - earlier.count[i]),
            bytes: std::array::from_fn(|i| self.bytes[i] - earlier.bytes[i]),
        };
        d.count[Layer::Outside.idx()] = 0;
        d.bytes[Layer::Outside.idx()] = 0;
        d
    }

    /// Allocations charged to `layer`.
    pub fn count_of(&self, layer: Layer) -> u64 {
        self.count[layer.idx()]
    }

    /// Allocations over every program layer (not the benchmark's own).
    pub fn program_count(&self) -> u64 {
        self.count.iter().sum::<u64>() - self.count_of(Layer::Bench)
    }

    /// Bytes over every program layer (not the benchmark's own).
    pub fn program_bytes(&self) -> u64 {
        self.bytes.iter().sum::<u64>() - self.bytes[Layer::Bench.idx()]
    }
}
