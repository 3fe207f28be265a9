//! Heap held by `split` and by one `fit` epoch beyond the dataset itself,
//! counted by a global allocator that wraps the system one.
//!
//! The file holds a single test: the harness runs tests on parallel
//! threads, and a second test would allocate inside the measured regions.

use bfly_data::{split, Dataset};
use bfly_nn::{fit, Dense, TrainConfig};
use bfly_tensor::{derived_rng, seeded_rng, Matrix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements the same contract; the wrapper only updates two counters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`, as the caller
        // guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its result and the most bytes it held at once beyond
/// those live when it started.
fn peak_above_start<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.load(Relaxed);
    PEAK.store(start, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed).saturating_sub(start))
}

fn bytes(data: &Dataset) -> usize {
    data.features.len() * size_of::<f32>() + data.labels.len() * size_of::<usize>()
}

const MIB: f64 = (1 << 20) as f64;

/// Room `split` may use beyond its larger held-out split: the shuffled
/// order (8 bytes a row) and one row buffer, with margin.
const SPLIT_SLACK: usize = 256 << 10;

/// Room one `fit` epoch may use beyond the split, whatever the dataset's
/// size: one 50-row batch, one 256-row evaluation chunk, the shuffled row
/// indices and the model's per-step activations and gradients, with
/// margin. The dataset here is 15.66 MiB.
const EPOCH_BOUND: usize = 4 << 20;

#[test]
fn split_and_one_epoch_hold_the_dataset_once() {
    let (rows, dim, classes) = (4_000, 1_024, 10);
    let features = Matrix::from_fn(rows, dim, |r, c| ((r * 31 + c * 7) % 97) as f32 / 97.0);
    let data = Dataset::new(features, (0..rows).map(|r| r % classes).collect(), classes);
    let dataset = bytes(&data) as f64;

    let (parts, split_extra) = peak_above_start(|| split(data, 0.2, 0.15, &mut derived_rng(1, 1)));
    let held_out = bytes(&parts.test).max(bytes(&parts.val));
    assert!(
        split_extra <= held_out + SPLIT_SLACK,
        "split held {:.2} MiB ({:.2}x the dataset) beyond the dataset; its larger held-out \
         split is {:.2} MiB",
        split_extra as f64 / MIB,
        split_extra as f64 / dataset,
        held_out as f64 / MIB,
    );

    let mut model = Dense::new(dim, classes, &mut seeded_rng(2));
    let config = TrainConfig { epochs: 1, seed: 3, ..TrainConfig::default() };
    let (report, epoch_extra) = peak_above_start(|| fit(&mut model, &parts, &config));
    assert_eq!(report.steps, parts.train.len().div_ceil(config.batch_size));
    assert!(
        epoch_extra <= EPOCH_BOUND,
        "one epoch held {:.2} MiB ({:.2}x the dataset) beyond the split; the bound is {:.2} MiB",
        epoch_extra as f64 / MIB,
        epoch_extra as f64 / dataset,
        EPOCH_BOUND as f64 / MIB,
    );
}
