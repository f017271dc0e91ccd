//! Criterion benchmarks of the discrete-event core: event-queue
//! scheduling/popping (bulk, and the simulator's steady hold pattern), the
//! full packet path through the fabric (one message, a contended burst,
//! and a chain that recycles message slots), and the flow backend's
//! traffic walk over an application's generators.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use anp_flowsim::describe_members;
use anp_simnet::{
    drain, EventQueue, Fabric, NetEvent, NodeId, Notice, SimDuration, SimTime, SwitchConfig,
};
use anp_workloads::{AppKind, RunMode};

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    for n in [1_000u64, 100_000] {
        g.throughput(Throughput::Elements(n));
        g.bench_function(format!("schedule_pop_{n}"), |b| {
            b.iter_batched(
                EventQueue::<u64>::new,
                |mut q| {
                    // Interleaved times exercise heap reordering.
                    for i in 0..n {
                        q.schedule_at(SimTime::from_nanos((i * 7919) % (n * 4)), i);
                    }
                    let mut acc = 0u64;
                    while let Some((_, e)) = q.pop() {
                        acc = acc.wrapping_add(e);
                    }
                    acc
                },
                BatchSize::SmallInput,
            );
        });
    }

    // The simulator's access pattern: a steady ≈150 pending events, each
    // pop followed by one schedule, mostly one serialization (205, 250 or
    // 300 ns) ahead and 1 % tens of microseconds ahead.
    let holds = 100_000u64;
    let delay = |i: u64| {
        if i.is_multiple_of(100) {
            SimDuration::from_nanos(20_000 + i % 7 * 1_000)
        } else {
            SimDuration::from_nanos([205, 250, 300][(i % 3) as usize])
        }
    };
    g.throughput(Throughput::Elements(holds));
    g.bench_function("hold_150_pending", |b| {
        b.iter_batched(
            || {
                let mut q = EventQueue::<u64>::new();
                for i in 0..150 {
                    q.schedule_after(delay(i * 7), i);
                }
                q
            },
            |mut q| {
                let mut acc = 0u64;
                for i in 0..holds {
                    if let Some((_, e)) = q.pop() {
                        acc = acc.wrapping_add(e);
                    }
                    q.schedule_after(delay(i), i);
                }
                acc
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_fabric_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("fabric");
    g.bench_function("single_packet_end_to_end", |b| {
        b.iter_batched(
            || {
                (
                    Fabric::new(SwitchConfig::tiny_deterministic()),
                    EventQueue::<NetEvent>::new(),
                )
            },
            |(mut fab, mut q)| {
                fab.send_message(&mut q, 0, NodeId(0), NodeId(1), 512);
                drain(&mut fab, &mut q, SimTime::from_secs(1)).len()
            },
            BatchSize::SmallInput,
        );
    });

    // Sustained many-sender load at Cab scale: measures events/sec of the
    // whole switch model under contention.
    let msgs = 2_000u64;
    g.throughput(Throughput::Elements(msgs));
    g.bench_function("cab_contended_2000_msgs", |b| {
        b.iter_batched(
            || {
                (
                    Fabric::new(SwitchConfig::cab().with_seed(1)),
                    EventQueue::<NetEvent>::new(),
                )
            },
            |(mut fab, mut q)| {
                for i in 0..msgs {
                    fab.send_message(
                        &mut q,
                        (i % 36) as u32,
                        NodeId((i % 18) as u32),
                        NodeId(((i + 7) % 18) as u32),
                        4096 * 3,
                    );
                }
                drain(&mut fab, &mut q, SimTime::from_secs(10)).len()
            },
            BatchSize::SmallInput,
        );
    });

    // FFTW's pattern at its smallest: one-packet messages, each sent when
    // the previous one is delivered, so every send reuses the slot the
    // last delivery freed.
    let chain = 2_000u32;
    g.throughput(Throughput::Elements(u64::from(chain)));
    g.bench_function("chained_2000_msgs", |b| {
        b.iter_batched(
            || {
                (
                    Fabric::new(SwitchConfig::cab().with_seed(1)),
                    EventQueue::<NetEvent>::new(),
                )
            },
            |(mut fab, mut q)| {
                let mut out = Vec::new();
                let mut sent = 1;
                fab.send_message(&mut q, 0, NodeId(0), NodeId(1), 1_024);
                while let Some((_, ev)) = q.pop() {
                    fab.handle(&mut q, ev, &mut out);
                    for n in out.drain(..) {
                        if matches!(n, Notice::MessageDelivered { .. }) && sent < chain {
                            let src = sent % 18;
                            fab.send_message(
                                &mut q,
                                src,
                                NodeId(src),
                                NodeId((src + 7) % 18),
                                1_024,
                            );
                            sent += 1;
                        }
                    }
                }
                q.now()
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

/// One traffic extraction of a full-length Cab application, as the flow
/// backend runs it per seed: MILC and FFTW issue the most ops of the six
/// (200 iterations of halos and allreduces; 25 of two all-to-alls).
fn bench_extract(c: &mut Criterion) {
    let mut g = c.benchmark_group("extract");
    let net = SwitchConfig::cab();
    for app in [AppKind::Milc, AppKind::Fftw] {
        g.bench_function(format!("describe_members_{}", app.name()), |b| {
            b.iter_batched(
                || app.build(RunMode::Iterations(0), 1),
                |members| describe_members(app.name(), members, &net),
                BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

criterion_group!(benches, bench_event_queue, bench_fabric_path, bench_extract);
criterion_main!(benches);
