//! Heap cost of deciding a reduction. `--preprocess auto` plans `full` on
//! every graph and discards the plan when the reduction would not pay, so
//! on an irreducible graph the plan's peak heap is pure overhead on the
//! way to the first SPD pass. A counting global allocator records it.
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

/// Planning `full` on a graph with no pendant vertex and no twins finds
/// nothing, and must cost little more than its per-vertex class ids: at
/// most 24 bytes per vertex of peak heap growth (21 measured: the
/// neighbourhood fingerprints and their sort, 8 bytes each, then the class
/// ids and kinds). Sorting a 16-byte key per vertex, or allocating the
/// pruning arrays with nothing to prune, exceeds it.
#[test]
fn planning_an_irreducible_graph_allocates_little() {
    let g = generators::barabasi_albert(1 << 15, 4, &mut SmallRng::seed_from_u64(1));
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let planned = plan(&g, ReduceLevel::Full).unwrap();
    let ratio = planned.stats().work_ratio();
    drop(planned);
    let per_vertex = (PEAK.load(Relaxed) - base) as f64 / g.num_vertices() as f64;
    assert_eq!(ratio, 1.0, "the test graph must be irreducible");
    assert!(per_vertex <= 24.0, "plan peaked at {per_vertex:.1} bytes per vertex");
}
