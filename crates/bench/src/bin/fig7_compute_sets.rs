//! Fig 7 — Number of compute sets and total memory consumption on the IPU
//! versus square problem size, for Linear, butterfly and pixelfly.
//!
//! Expected shape (paper §4.1): "the number of compute sets exhibits a
//! significant correlation with the number of variables, edges, and
//! vertices" — butterfly compiles to one compute set per factor
//! (log2 N + overheads), pixelfly to a handful, Linear to one or two; total
//! memory tracks the compiled structure, not just the tensors.

use bfly_bench::{fmt_bytes, format_table};
use bfly_core::{butterfly_trace, PixelflyConfig, PixelflyLayer};
use bfly_ipu::{account, lower, IpuDevice};
use bfly_nn::{Dense, Layer};
use bfly_tensor::{seeded_rng, LinOp};

fn main() {
    let dev = IpuDevice::gc200();
    let spec = dev.spec();
    let mut rng = seeded_rng(7);

    let mut rows = Vec::new();
    for e in 7..=13u32 {
        let n = 1usize << e;
        let linear = Dense::new(n, n, &mut rng).trace(n);
        let butterfly = butterfly_trace(n, n, n);
        let mut config = PixelflyConfig::paper_default();
        while n / config.block_size < config.butterfly_size {
            if config.block_size > 2 {
                config.block_size /= 2;
            } else {
                config.butterfly_size /= 2;
            }
        }
        config.rank = config.rank.min(n / 8);
        let pixelfly =
            PixelflyLayer::new(n, n, config, &mut rng).expect("power-of-two dims").trace(n);

        let report = |trace: &[LinOp]| {
            let g = lower(trace, spec);
            account(&g, spec)
        };
        let rl = report(&linear);
        let rb = report(&butterfly);
        let rp = report(&pixelfly);
        rows.push(vec![
            format!("2^{e}"),
            rl.compute_sets.to_string(),
            rb.compute_sets.to_string(),
            rp.compute_sets.to_string(),
            fmt_bytes(rl.total_bytes),
            fmt_bytes(rb.total_bytes),
            fmt_bytes(rp.total_bytes),
        ]);
    }
    println!("Fig 7: compute sets and total memory vs N (batch = N) on the IPU\n");
    println!(
        "{}",
        format_table(
            &["N", "CS lin", "CS bfly", "CS pixel", "mem lin", "mem bfly", "mem pixel"],
            &rows
        )
    );
    println!(
        "butterfly needs one compute set per factor (log2 N of them); the\n\
         correlated growth of variables/edges/vertices drives its memory\n\
         overhead — but its *data* is O(N log N) instead of O(N^2), which is\n\
         why it keeps fitting after Linear goes out of memory."
    );
}
