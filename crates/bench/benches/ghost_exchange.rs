//! Ghost-exchange paths: the direct-memory fast path vs the parcel path —
//! the real-execution counterpart of the Figure 8 model constants.

use criterion::{criterion_group, criterion_main, Criterion};
use hpx_rt::SimCluster;
use octotiger::state::NF;
use octree::{DistGrid, GhostConfig, Tree};
use std::hint::black_box;

fn exchange_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("ghost/exchange_level2");
    group.sample_size(20);
    // Two localities: a mix of local and remote links, like a 2-node run.
    let cluster = SimCluster::new(2, 2);
    let grid = DistGrid::new(Tree::new_uniform(2), 8, 2, NF, &cluster);
    group.bench_function("direct_local_access", |bench| {
        bench.iter(|| {
            black_box(grid.exchange_ghosts(
                &cluster,
                GhostConfig {
                    direct_local_access: true,
                },
            ));
        })
    });
    group.bench_function("parcels_only", |bench| {
        bench.iter(|| {
            black_box(grid.exchange_ghosts(
                &cluster,
                GhostConfig {
                    direct_local_access: false,
                },
            ));
        })
    });
    // The futurized path: every link is its own future chain instead of a
    // barrier.  With all sources ready up front this measures the pure
    // wiring + execution overhead relative to the blob exchange above.
    group.bench_function("pipelined_direct", |bench| {
        bench.iter(|| {
            let ready: std::collections::HashMap<_, _> = grid
                .leaves()
                .iter()
                .map(|&leaf| (leaf, hpx_rt::make_ready_future(())))
                .collect();
            let exchange = grid.exchange_ghosts_pipelined(
                &cluster,
                GhostConfig {
                    direct_local_access: true,
                },
                &ready,
            );
            for f in exchange.ghosts_filled.values() {
                f.wait();
            }
            for f in exchange.outgoing_packed.values() {
                f.wait();
            }
            black_box(
                exchange
                    .links_resolved
                    .load(std::sync::atomic::Ordering::Relaxed),
            );
        })
    });
    group.finish();
    cluster.shutdown();
}

fn pack_unpack(c: &mut Criterion) {
    use octree::{Dir, SubGrid};
    let mut grid = SubGrid::new(8, 2, NF);
    grid.fill(1.5);
    let mut group = c.benchmark_group("ghost/pack");
    group.bench_function("face_pack", |bench| {
        bench.iter(|| black_box(grid.pack_send(Dir::new(1, 0, 0))))
    });
    let payload = grid.pack_send(Dir::new(1, 0, 0));
    group.bench_function("face_unpack", |bench| {
        bench.iter(|| {
            grid.unpack_recv(Dir::new(-1, 0, 0), black_box(&payload));
        })
    });
    group.finish();
}

criterion_group!(benches, exchange_paths, pack_unpack);
criterion_main!(benches);
