//! A small CNN on the synthetic image task, with its channel-mixing (1x1)
//! convolution implemented either densely or as a butterfly — the
//! convolutional side of the paper's claim that butterfly replaces
//! "fully-connected and convolutional layers".
//!
//! Architecture: Conv3x3(1 -> C) -> ReLU -> MaxPool2 -> {1x1 mix, dense or
//! butterfly} -> ReLU -> GlobalAvgPool -> Dense(C -> 10).
//!
//! Run with: `cargo run --release --example train_cnn`
//! Optional env: BFLY_SAMPLES (default 1500), BFLY_EPOCHS (default 8).

use bfly_bench::env_usize;
use bfly_core::ButterflyConv1x1;
use bfly_data::{generate_images, split, ImageSpec};
use bfly_nn::{
    fit, Conv2d, ConvShape, Dense, GlobalAvgPool, Layer, MaxPool2, Relu, Sequential, TrainConfig,
};
use bfly_tensor::seeded_rng;

fn build_cnn(channels: usize, butterfly_mix: bool, seed: u64) -> Sequential {
    let mut rng = seeded_rng(seed);
    let stem = ConvShape {
        in_channels: 1,
        out_channels: channels,
        height: 32,
        width: 32,
        kernel: 3,
        padding: 1,
    };
    let mix: Box<dyn Layer> = if butterfly_mix {
        Box::new(ButterflyConv1x1::new(channels, channels, 16, 16, &mut rng))
    } else {
        Box::new(Conv2d::new(
            ConvShape {
                in_channels: channels,
                out_channels: channels,
                height: 16,
                width: 16,
                kernel: 1,
                padding: 0,
            },
            &mut rng,
        ))
    };
    Sequential::new()
        .push(Box::new(Conv2d::new(stem, &mut rng)))
        .push(Box::new(Relu::new()))
        .push(Box::new(MaxPool2::new(channels, 32, 32)))
        .push(mix)
        .push(Box::new(Relu::new()))
        .push(Box::new(GlobalAvgPool::new(channels, 16, 16)))
        .push(Box::new(Dense::new(channels, 10, &mut rng)))
}

fn main() {
    let samples = env_usize("BFLY_SAMPLES", 1500);
    let epochs = env_usize("BFLY_EPOCHS", 8);
    let channels = 32usize;

    println!("CNN on synthetic oriented-grating images ({samples} samples, {epochs} epochs, {channels} channels)\n");
    let data = generate_images(&ImageSpec::gratings32(samples, 77));
    let mut rng = seeded_rng(78);
    let s = split(data, 0.2, 0.15, &mut rng);

    for butterfly_mix in [false, true] {
        let label = if butterfly_mix { "butterfly 1x1 mix" } else { "dense 1x1 mix" };
        let mut model = build_cnn(channels, butterfly_mix, 79);
        let config =
            TrainConfig { epochs, lr: 0.05, seed: 80, verbose: false, ..TrainConfig::default() };
        let report = fit(&mut model, &s, &config);
        println!(
            "{label:>18}: acc {:.2}%  |  {} total params  |  {:.1}s host training",
            report.test_accuracy * 100.0,
            model.param_count(),
            report.train_seconds
        );
    }
    println!(
        "\nthe butterfly mix replaces the {channels}x{channels} pointwise conv\n\
         ({} weights) with {} twiddle parameters — a ~3x compression that, at\n\
         this small channel count, trades some accuracy; the ratio (and the\n\
         case for butterfly) grows with C: 2 C log2 C vs C^2.",
        channels * channels + channels,
        2 * channels * (channels.trailing_zeros() as usize) + channels,
    );
}
