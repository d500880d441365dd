//! Heap cost of building a reduction that is kept. `--preprocess auto`
//! assembles the planned reduction whenever it makes an SPD pass cheaper,
//! and on graphs with pendant trees and twins the assembly, not the
//! sampler, sets the heap's high-water mark. A counting global allocator
//! records the assembly's peak and what the finished reduction keeps.
//!
//! This file holds exactly one test: a second one running on another
//! thread would allocate into the same counters.

use mhbc_graph::generators;
use mhbc_graph::reduce::{plan, ReduceLevel};
use rand::{rngs::SmallRng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Assembling `full` on a duplication–divergence graph, whose pendant
/// trees prune and whose twins collapse, peaks at most 72 bytes per
/// original vertex above the graph (the plan it consumes included) and
/// keeps at most 64 (64.5 and 60.5 measured). The reduction keeps H, two
/// `f64` and a twin kind per reduced vertex, the members, and per original
/// vertex an 8-byte state, a credit and a row group. A pre-relabel copy of
/// H beside the relabelled one, or `usize` bucket offsets per vertex, break
/// the first bound; three more `f64` per reduced vertex, or a 12-byte state,
/// the second.
#[test]
fn assembling_a_kept_reduction_allocates_little_beyond_it() {
    let g = generators::duplication_divergence(1 << 15, 0.5, &mut SmallRng::seed_from_u64(1));
    let n = g.num_vertices() as f64;
    let base = LIVE.load(Relaxed);
    let planned = plan(&g, ReduceLevel::Full).unwrap();
    let stats = *planned.stats();
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    let red = planned.assemble();
    let peak = (PEAK.load(Relaxed) - base) as f64 / n;
    let kept = (LIVE.load(Relaxed) - base) as f64 / n;
    assert!(stats.pruned_vertices > 0 && stats.collapsed_vertices > 0, "{stats:?}");
    assert!(red.stats().work_ratio() > 1.2, "the reduction must be worth keeping: {stats:?}");
    assert!(peak <= 72.0, "assemble peaked at {peak:.1} bytes per vertex");
    assert!(kept <= 64.0, "the reduction keeps {kept:.1} bytes per vertex");
}
