//! Criterion benchmarks of the message-passing layer: point-to-point
//! matching, collective lowering, and world throughput on a representative
//! exchange.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use anp_simmpi::coll::Lowering;
use anp_simmpi::p2p::{Envelope, Mailbox};
use anp_simmpi::{Op, Program, Scripted, Src, World};
use anp_simnet::{NodeId, SimTime, SwitchConfig};

fn bench_matching(c: &mut Criterion) {
    let mut g = c.benchmark_group("p2p_matching");
    let n = 10_000u32;
    g.throughput(Throughput::Elements(u64::from(n)));
    g.bench_function("post_then_deliver_in_order", |b| {
        b.iter_batched(
            Mailbox::default,
            |mut mb| {
                for i in 0..n {
                    mb.post(Src::Rank(i % 64), i % 8);
                }
                let mut matched = 0u32;
                for i in 0..n {
                    if mb.deliver(Envelope {
                        src: i % 64,
                        tag: i % 8,
                    }) {
                        matched += 1;
                    }
                }
                matched
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("unexpected_queue_scan", |b| {
        b.iter_batched(
            || {
                let mut mb = Mailbox::default();
                for i in 0..1_000u32 {
                    mb.deliver(Envelope {
                        src: i % 64,
                        tag: 0,
                    });
                }
                mb
            },
            |mut mb| {
                let mut hits = 0u32;
                for i in 0..1_000u32 {
                    if mb.post(Src::Rank(i % 64), 0) {
                        hits += 1;
                    }
                }
                hits
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_collective_lowering(c: &mut Criterion) {
    let mut g = c.benchmark_group("collective_lowering");
    g.bench_function("allreduce_expansion_144", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for local in 0..144 {
                total += Lowering::new(Op::Allreduce { bytes: 1024 }, local, 144, 0).count();
            }
            total
        });
    });
    let alltoall = Op::Alltoall {
        bytes_per_pair: 1024,
    };
    g.bench_function("alltoall_expansion_144", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for local in 0..144 {
                total += Lowering::new(alltoall, local, 144, 0).count();
            }
            total
        });
    });
    g.finish();
}

fn bench_world_exchange(c: &mut Criterion) {
    let mut g = c.benchmark_group("world");
    // A 36-rank allreduce on the Cab fabric: the cost of one collective
    // through the whole stack (lowering + matching + network).
    g.bench_function("allreduce_36_ranks_cab", |b| {
        b.iter_batched(
            || {
                let mut w = World::new(SwitchConfig::cab().with_seed(2));
                let members: Vec<(Box<dyn Program>, NodeId)> = (0..36u32)
                    .map(|i| {
                        (
                            Box::new(Scripted::new(vec![Op::Allreduce { bytes: 1024 }, Op::Stop]))
                                as Box<dyn Program>,
                            NodeId(i / 2),
                        )
                    })
                    .collect();
                let job = w.add_job("allreduce", members);
                (w, job)
            },
            |(mut w, job)| {
                assert!(w.run_until_job_done(job, SimTime::from_secs(5)).completed());
                w.events_processed()
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_matching,
    bench_collective_lowering,
    bench_world_exchange
);
criterion_main!(benches);
