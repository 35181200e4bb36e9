//! Microbenchmarks of every substrate the simulator is built from.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ptb_isa::stream::{FnEnv, VecStream};
use ptb_isa::{Addr, BlockGen, BlockGenConfig, CoreId, DynInst, ExecCtx, OpKind};
use ptb_mem::{AccessKind, CacheArray, CacheConfig, MemConfig, MemReq, MemorySystem};
use ptb_noc::{Mesh, MeshConfig, NodeId};
use ptb_power::{core_cycle_tokens, CoreActivity, DvfsMode, PowerParams, Ptht};
use ptb_uarch::{Core, CoreConfig, Gshare};
use std::hint::black_box;
use std::time::Duration;

fn bench_mesh(c: &mut Criterion) {
    let mut g = c.benchmark_group("noc");
    g.measurement_time(Duration::from_secs(2)).sample_size(20);
    g.bench_function("mesh_send_advance_16c", |b| {
        b.iter_batched(
            || Mesh::<u32>::new(MeshConfig::for_cores(16)),
            |mut mesh| {
                for i in 0..64u32 {
                    mesh.send(
                        NodeId((i % 16) as usize),
                        NodeId(((i * 7) % 16) as usize),
                        72,
                        i,
                    );
                }
                let mut arrived = Vec::new();
                for _ in 0..128 {
                    mesh.advance();
                    mesh.take_arrivals(&mut arrived);
                    black_box(arrived.drain(..).count());
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.measurement_time(Duration::from_secs(2)).sample_size(20);
    g.bench_function("l2_probe_insert", |b| {
        let mut cache: CacheArray<u8> = CacheArray::new(CacheConfig::l2());
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x40).wrapping_mul(2654435761) % (1 << 22);
            if cache.probe(Addr(i)).is_none() {
                black_box(cache.insert(Addr(i), 1));
            }
        })
    });
    g.finish();
}

fn bench_bpred(c: &mut Criterion) {
    let mut g = c.benchmark_group("bpred");
    g.measurement_time(Duration::from_secs(2)).sample_size(20);
    g.bench_function("gshare_predict_train", |b| {
        let mut gs = Gshare::new();
        let mut pc = 0u64;
        b.iter(|| {
            pc = pc.wrapping_add(4) & 0xffff;
            black_box(gs.predict_and_train(pc, pc & 8 == 0));
        })
    });
    g.finish();
}

fn bench_ptht(c: &mut Criterion) {
    let mut g = c.benchmark_group("power");
    g.measurement_time(Duration::from_secs(2)).sample_size(20);
    g.bench_function("ptht_estimate_update", |b| {
        let mut t = Ptht::default();
        let mut pc = 0u64;
        b.iter(|| {
            pc = pc.wrapping_add(4);
            black_box(t.estimate(pc));
            t.update(pc, 55.0);
        })
    });
    g.bench_function("core_cycle_tokens", |b| {
        let p = PowerParams::default();
        let a = CoreActivity {
            ticked: true,
            fetched: 4,
            dispatched: 4,
            issued: 3,
            issued_base_tokens: 180.0,
            rob_occupancy: 70,
            rob_active: 20,
            ..Default::default()
        };
        b.iter(|| black_box(core_cycle_tokens(&p, &a, DvfsMode::NOMINAL)))
    });
    g.finish();
}

fn bench_blockgen(c: &mut Criterion) {
    let mut g = c.benchmark_group("workloads");
    g.measurement_time(Duration::from_secs(2)).sample_size(20);
    g.bench_function("blockgen_next_inst", |b| {
        let mut gen = BlockGen::with_threads(BlockGenConfig::default(), 0, 16, 0x1000, 7);
        b.iter(|| black_box(gen.next_inst(ExecCtx::BUSY)))
    });
    g.finish();
}

fn bench_core_tick(c: &mut Criterion) {
    let mut g = c.benchmark_group("uarch");
    g.measurement_time(Duration::from_secs(3)).sample_size(20);
    g.bench_function("core_tick_alu_loop", |b| {
        b.iter_batched(
            || {
                let insts: Vec<DynInst> = (0..20_000)
                    .map(|i| DynInst::compute(0x1000 + (i % 64) * 4, OpKind::IntAlu))
                    .collect();
                (
                    Core::new(
                        CoreId(0),
                        CoreConfig::default(),
                        PowerParams::default().class_base,
                    ),
                    VecStream::new(insts),
                )
            },
            |(mut core, mut stream)| {
                let mut env = FnEnv {
                    read: |_| 0u64,
                    cycle: 0,
                };
                for _ in 0..6000 {
                    black_box(core.tick(&mut stream, &mut env));
                    if core.is_done() {
                        break;
                    }
                }
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_memory_system(c: &mut Criterion) {
    let mut g = c.benchmark_group("mem");
    g.measurement_time(Duration::from_secs(3)).sample_size(20);
    g.bench_function("moesi_16tiles_mixed_traffic", |b| {
        b.iter_batched(
            || MemorySystem::new(MemConfig::default(), 16),
            |mut ms| {
                let mut id = 0u64;
                for round in 0..40u64 {
                    for core in 0..16usize {
                        let addr = 0x1000_0000 + ((round * 16 + core as u64) % 256) * 64;
                        let kind = if (round + core as u64).is_multiple_of(3) {
                            AccessKind::Store
                        } else {
                            AccessKind::Load
                        };
                        ms.request(MemReq {
                            id,
                            core: CoreId(core),
                            kind,
                            addr: Addr(addr),
                        });
                        id += 1;
                    }
                    let mut done = Vec::new();
                    for _ in 0..20 {
                        ms.tick();
                        ms.drain_responses(&mut done);
                        black_box(done.drain(..).count());
                    }
                }
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_mesh,
    bench_cache,
    bench_bpred,
    bench_ptht,
    bench_blockgen,
    bench_core_tick,
    bench_memory_system
);
criterion_main!(benches);
