//! Criterion micro-benchmarks for the cryptographic substrates: AES/PRG
//! throughput, SHA-256, curve scalar multiplication, OT extension, garbling
//! and fragment-multiplication triplets.

use abnn2_core::matmul::{triplet_client, triplet_server, TripletMode};
use abnn2_crypto::{sha256::sha256, Aes128, Block, Prg, RoHash};
use abnn2_gc::{circuits, garble};
use abnn2_math::{FragmentScheme, Matrix, Ring};
use abnn2_net::{run_pair, NetworkModel};
use abnn2_ot::{FragmentChooser, FragmentSender, OfflineMode};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::SeedableRng;

fn bench_aes(c: &mut Criterion) {
    let aes = Aes128::new(Block::from(1u128));
    let mut g = c.benchmark_group("aes128");
    g.throughput(Throughput::Bytes(16));
    g.bench_function("encrypt_block", |b| {
        let mut x = Block::from(7u128);
        b.iter(|| {
            x = aes.encrypt_block(x);
            x
        });
    });
    g.finish();
}

fn bench_prg_and_hash(c: &mut Criterion) {
    let mut g = c.benchmark_group("prg_hash");
    g.throughput(Throughput::Bytes(1024));
    g.bench_function("prg_1kib", |b| {
        let mut prg = Prg::from_seed(Block::from(2u128));
        b.iter(|| prg.bytes(1024));
    });
    g.bench_function("sha256_1kib", |b| {
        let data = vec![0xABu8; 1024];
        b.iter(|| sha256(&data));
    });
    g.bench_function("ro_hash_expand_64B", |b| {
        let h = RoHash::new();
        b.iter(|| h.hash_expand(3, b"0123456789abcdef0123456789abcdef", 64));
    });
    // The same oracle call for 1024 rows in one batch: per-row cost is
    // this time over 1024.
    g.bench_function("ro_hash_expand_rows_1024x64B", |b| {
        let h = RoHash::new();
        let rows = b"0123456789abcdef0123456789abcdef".repeat(1024);
        let mut out = vec![0u8; 1024 * 64];
        b.iter(|| h.hash_expand_rows(&rows, 32, |i| i as u128, 64, &mut out));
    });
    g.finish();
}

fn bench_curve(c: &mut Criterion) {
    use abnn2_crypto::curve::{EdwardsPoint, PointTable};
    let scalar = [0x5Au8; 32];
    let mut g = c.benchmark_group("curve25519");
    g.bench_function("scalar_mul_var", |b| {
        let base = EdwardsPoint::base();
        b.iter(|| base.scalar_mul(&scalar));
    });
    g.bench_function("scalar_mul_table", |b| {
        b.iter(|| PointTable::base().mul(&scalar));
    });
    g.bench_function("table_build", |b| {
        let base = EdwardsPoint::base();
        b.iter(|| PointTable::new(&base));
    });
    g.throughput(Throughput::Elements(256));
    g.bench_function("batch_encode_256", |b| {
        let points = vec![PointTable::base().mul(&scalar); 256];
        b.iter(|| EdwardsPoint::batch_to_bytes(&points));
    });
    g.finish();
}

fn bench_garbling(c: &mut Criterion) {
    let circuit = circuits::relu_reshare_vec_circuit(32, 16);
    let mut g = c.benchmark_group("garbling");
    g.throughput(Throughput::Elements(circuit.and_count() as u64));
    g.bench_function("garble_relu16x32", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        b.iter(|| garble::garble(&circuit, &mut rng));
    });
    g.finish();
}

fn bench_triplets(c: &mut Criterion) {
    let ring = Ring::new(32);
    let mut g = c.benchmark_group("triplets_64x64");
    g.sample_size(10);
    for scheme in [
        FragmentScheme::binary(),
        FragmentScheme::ternary(),
        FragmentScheme::signed_bit_fields(&[2, 2, 2, 2]),
    ] {
        let label = scheme.label();
        g.bench_function(format!("one_batch_{label}"), |b| {
            b.iter(|| {
                let (m, n) = (64, 64);
                let mut rng = rand::rngs::StdRng::seed_from_u64(5);
                let weights = {
                    use rand::Rng;
                    let (lo, hi) = scheme.weight_range();
                    (0..m * n).map(|_| rng.gen_range(lo..=hi)).collect::<Vec<i64>>()
                };
                let (s1, s2) = (scheme.clone(), scheme.clone());
                run_pair(
                    NetworkModel::instant(),
                    move |ch| {
                        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
                        let mut kk =
                            FragmentChooser::setup(ch, OfflineMode::Iknp, &mut rng).expect("setup");
                        triplet_server(
                            ch,
                            &mut kk,
                            &weights,
                            m,
                            n,
                            1,
                            &s1,
                            ring,
                            TripletMode::OneBatch,
                        )
                        .expect("server")
                    },
                    move |ch| {
                        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
                        let mut kk =
                            FragmentSender::setup(ch, OfflineMode::Iknp, &mut rng).expect("setup");
                        let r = Matrix::random(n, 1, &ring, &mut rng);
                        triplet_client(
                            ch,
                            &mut kk,
                            &r,
                            m,
                            &s2,
                            ring,
                            TripletMode::OneBatch,
                            &mut rng,
                        )
                        .expect("client")
                    },
                )
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_aes,
    bench_prg_and_hash,
    bench_curve,
    bench_garbling,
    bench_triplets
);
criterion_main!(benches);
