//! Criterion micro-benchmarks for the line codecs: the Reed–Solomon
//! primitives and every registry codec's roundtrip. The per-codec
//! lines/sec ladder gated in CI is `bench record|gate codec`.

use arcc_gf::chipkill::LineCodec;
use arcc_gf::codec::codec_registry;
use arcc_gf::{Gf256, ReedSolomon};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

fn bench_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("encode_line");
    for (name, codec) in [
        ("relaxed_rs18_16", LineCodec::relaxed_x8()),
        ("sccdcd_rs36_32", LineCodec::sccdcd_x4()),
        ("upgraded_rs36_32", LineCodec::upgraded_two_channel()),
        ("upgraded2_rs72_64", LineCodec::upgraded_four_channel()),
    ] {
        let data: Vec<u8> = (0..codec.data_bytes()).map(|i| i as u8).collect();
        g.throughput(Throughput::Bytes(codec.data_bytes() as u64));
        g.bench_function(name, |b| {
            b.iter(|| codec.encode_line(black_box(&data)).expect("valid geometry"))
        });
    }
    g.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("decode_line");
    for (name, codec) in [
        ("clean_relaxed", LineCodec::relaxed_x8()),
        ("clean_upgraded", LineCodec::upgraded_two_channel()),
    ] {
        let data: Vec<u8> = (0..codec.data_bytes()).map(|i| i as u8).collect();
        let enc = codec.encode_line(&data).expect("valid geometry");
        g.throughput(Throughput::Bytes(codec.data_bytes() as u64));
        g.bench_function(name, |b| {
            b.iter_batched(
                || enc.clone(),
                |mut e| codec.decode_line(black_box(&mut e), &[], 1).expect("clean"),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    // Decode with a dead device (the expensive path: BM + Chien + Forney).
    for (name, codec) in [
        ("chipkill_relaxed", LineCodec::relaxed_x8()),
        ("chipkill_upgraded", LineCodec::upgraded_two_channel()),
    ] {
        let data: Vec<u8> = (0..codec.data_bytes()).map(|i| i as u8).collect();
        let mut enc = codec.encode_line(&data).expect("valid geometry");
        enc.kill_device(3, 0xFF);
        g.throughput(Throughput::Bytes(codec.data_bytes() as u64));
        g.bench_function(name, |b| {
            b.iter_batched(
                || enc.clone(),
                |mut e| {
                    codec
                        .decode_line(black_box(&mut e), &[], 1)
                        .expect("correctable")
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_syndromes(c: &mut Criterion) {
    let rs = ReedSolomon::<Gf256>::new(36, 32).expect("valid parameters");
    let cw = rs.encode_to_codeword(&[7u8; 32]).expect("valid length");
    c.bench_function("syndromes_rs36_32", |b| {
        b.iter(|| rs.syndromes(black_box(&cw)))
    });
}

fn bench_registry_roundtrip(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec_roundtrip");
    for codec in codec_registry() {
        let data: Vec<u8> = (0..codec.data_bytes()).map(|i| i as u8).collect();
        g.throughput(Throughput::Bytes(codec.data_bytes() as u64));
        g.bench_function(codec.name(), |b| {
            b.iter(|| {
                let mut line = codec.encode(black_box(&data)).expect("sized payload");
                codec.decode(&mut line, &[]).expect("clean line")
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_encode,
    bench_decode,
    bench_syndromes,
    bench_registry_roundtrip
);

criterion_main!(benches);
