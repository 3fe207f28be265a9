//! A frozen model holds each weight once: building an SHL for inference
//! leaves no more live heap than the `4 × param_count` bytes at which
//! residency prices it, plus a small fixed slack.
//!
//! The bytes are counted by this binary's own global allocator, so the file
//! holds a single test: no other test may allocate while it measures.

use bfly_core::{build_shl_inference, Method};
use bfly_nn::Layer;
use bfly_tensor::seeded_rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting live bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: both methods forward their arguments unchanged to `System`, which
// implements the same contract; the wrapper only updates a counter. The
// provided `alloc_zeroed` and `realloc` go through these two.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (so from `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes allowed beyond the parameters: the 4 KiB bit-reversal map of the
/// butterfly transforms, the pixelfly CSR index and the parameter names.
const SLACK: usize = 8 << 10;

#[test]
fn frozen_models_hold_each_weight_once() {
    let mut methods = Method::table4_all();
    methods.push(Method::OrthoButterfly);
    for method in methods {
        let before = LIVE.load(Relaxed);
        let model = build_shl_inference(method, 1024, 10, &mut seeded_rng(3))
            .expect("1024 fits every method");
        let held = LIVE.load(Relaxed) - before;
        let weights = 4 * model.param_count();
        assert!(
            held <= weights + SLACK,
            "{method}: {held} B live for {weights} B of weights ({} B over)",
            held - weights
        );
    }
}
