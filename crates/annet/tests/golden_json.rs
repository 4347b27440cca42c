//! Golden model files: the JSON of a [`Network`] is a contract.
//!
//! `Dense` stores its weights `in × out` but serialises them `out × in`,
//! the orientation of every model file written before that layout existed.
//! The fixture and the constants below were produced by the last commit
//! that stored `out × in` (PR 11, `5e5dda0`); this build must write the
//! same bytes and read them back to the same predictions, bit for bit.
//!
//! The committed file is a 10→33→17→2 head (widths off the 8-element
//! transpose tile, one ReLU layer). The paper-topology head serialises to
//! 1.9 MB, so it is pinned by the FNV-1a digest of its JSON instead.

#[path = "../../../tests/support/fnv1a.rs"]
mod fnv1a;

use fnv1a::fnv1a;

use annet::{Activation, Dataset, IncrementalTrainer, Network, NetworkBuilder, TrainConfig};
use desim::SimRng;

const FIXTURE: &str = include_str!("fixtures/head_10x33x17x2_seed7.json");

/// Weight seed of both heads.
const SEED: u64 = 7;

/// Predictions the parent commit made on [`probe_rows`], as `f64` bits.
const COMPACT_PREDICTIONS: [[u64; 2]; 3] = [
    [0x3fe0_caf8_f614_4245, 0x3fde_17f7_f939_53ce],
    [0x3fe1_b1fb_f0b2_f403, 0x3fda_f274_1660_124f],
    [0x3fe1_d933_3870_6c95, 0x3fdd_1c10_cc29_b594],
];
const PAPER_PREDICTIONS: [[u64; 2]; 3] = [
    [0x3fe2_4039_a860_a9e4, 0x3fde_e48e_5891_059c],
    [0x3fdf_9311_5b82_2570, 0x3fe1_ef30_6274_ac05],
    [0x3fdf_e713_60ad_bb83, 0x3fe0_3c00_3a51_2d67],
];
/// Length and FNV-1a digest of the parent's paper-topology JSON.
const PAPER_JSON_LEN: usize = 1_975_551;
const PAPER_JSON_DIGEST: u64 = 0xf62c_1ae6_af1c_f5ee;

fn probe_rows() -> Vec<Vec<f64>> {
    let mut rng = SimRng::seed_from_u64(99);
    (0..3)
        .map(|_| (0..10).map(|_| rng.next_f64()).collect())
        .collect()
}

fn assert_predictions(net: &Network, want: &[[u64; 2]; 3], label: &str) {
    for (row, want) in probe_rows().iter().zip(want) {
        let got: Vec<u64> = net.predict(row).iter().map(|p| p.to_bits()).collect();
        assert_eq!(got, want, "{label}");
    }
}

fn compact_head() -> Network {
    let mut rng = SimRng::seed_from_u64(SEED);
    NetworkBuilder::new(10)
        .dense(33, Activation::Tanh)
        .dense(17, Activation::Relu)
        .dense(2, Activation::Sigmoid)
        .build(&mut rng)
}

#[test]
fn compact_head_serialises_to_the_parents_bytes() {
    let built = compact_head();
    assert_eq!(built.to_json().unwrap(), FIXTURE);
    assert_predictions(&built, &COMPACT_PREDICTIONS, "built");
}

#[test]
fn parents_file_loads_to_bit_identical_predictions() {
    let loaded = Network::from_json(FIXTURE).unwrap();
    assert_eq!(loaded, compact_head());
    assert_predictions(&loaded, &COMPACT_PREDICTIONS, "loaded");
    assert_eq!(loaded.to_json().unwrap(), FIXTURE, "load → save round trip");
}

#[test]
fn paper_topology_head_matches_the_parents_digest() {
    let mut rng = SimRng::seed_from_u64(SEED);
    let built = NetworkBuilder::paper_topology(10, 2).build(&mut rng);
    let json = built.to_json().unwrap();
    assert_eq!(json.len(), PAPER_JSON_LEN);
    assert_eq!(fnv1a(json.as_bytes()), PAPER_JSON_DIGEST);
    let loaded = Network::from_json(&json).unwrap();
    assert_eq!(loaded, built);
    assert_predictions(&loaded, &PAPER_PREDICTIONS, "paper topology");
}

#[test]
fn inconsistent_layer_shapes_are_an_error_not_a_panic() {
    for (from, to) in [
        ("\"rows\":33,\"cols\":10", "\"rows\":33,\"cols\":11"),
        ("\"rows\":33,\"cols\":10", "\"rows\":0,\"cols\":10"),
        ("\"rows\":2,\"cols\":17", "\"rows\":1,\"cols\":34"),
    ] {
        assert!(FIXTURE.contains(from));
        let bad = FIXTURE.replacen(from, to, 1);
        assert!(Network::from_json(&bad).is_err(), "{to}");
    }
}

/// Length and FNV-1a digest of the paper-topology head's JSON after the
/// online policy's refit (20 eight-row [`IncrementalTrainer`] steps cycled
/// over 48 rows) and after one unshuffled `train` epoch in batches of 32
/// over 53 rows (so a 21-row batch closes it), written by the last commit
/// whose backward products ran the load-modify-store kernels (PR 13,
/// `fa87125`).
const REFIT_JSON: (usize, u64) = (1_987_695, 0xc609_de6b_72cd_d69d);
const EPOCH_JSON: (usize, u64) = (1_987_874, 0x1272_6d1b_9c56_b915);

/// `rows` seeded samples, about one feature in six an exact zero (the
/// scaled layer-0 inputs contain them).
fn training_rows(rows: usize) -> Dataset {
    let mut rng = SimRng::seed_from_u64(2020);
    let mut draw = |n: usize, zeros: bool| -> Vec<Vec<f64>> {
        (0..rows)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        let v = rng.next_f64();
                        if zeros && rng.next_f64() < 0.17 {
                            0.0
                        } else {
                            v
                        }
                    })
                    .collect()
            })
            .collect()
    };
    let x = draw(10, true);
    let y = draw(2, false);
    Dataset::from_rows(x, y).unwrap()
}

fn json_pin(net: &Network) -> (usize, u64) {
    let json = net.to_json().unwrap();
    (json.len(), fnv1a(json.as_bytes()))
}

#[test]
fn refit_and_training_epoch_match_the_parents_digests() {
    let mut rng = SimRng::seed_from_u64(SEED);
    let head = NetworkBuilder::paper_topology(10, 2).build(&mut rng);
    let config = TrainConfig {
        epochs: 1,
        learning_rate: 0.3,
        batch_size: 8,
        shuffle: false,
        momentum: 0.0,
    };

    let data = training_rows(48);
    let order: Vec<usize> = (0..data.len()).collect();
    let chunks: Vec<&[usize]> = order.chunks(config.batch_size).collect();
    let mut refit = head.clone();
    let mut trainer = IncrementalTrainer::new(&refit);
    for step in 0..20 {
        trainer.step(&mut refit, &data, chunks[step % chunks.len()], &config);
    }
    assert_eq!(json_pin(&refit), REFIT_JSON, "refit");

    let mut trained = head;
    let config = TrainConfig {
        batch_size: 32,
        momentum: 0.9,
        ..config
    };
    trained.train(&training_rows(53), &config, &mut rng);
    assert_eq!(json_pin(&trained), EPOCH_JSON, "training epoch");
}
