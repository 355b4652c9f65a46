//! Proof of the zero-allocation decision epoch: a counting global
//! allocator wraps the system allocator, and the steady-state
//! simulate–decide–learn loop (post-warm-up) is asserted to perform
//! **zero** heap allocations per epoch.
//!
//! The first phase drives a copy of one flat harness epoch —
//! `next_frame_into` → work-slice scratch refill → `run_frame_into` →
//! `record_frame` (pre-reserved) → `decide` → apply — so the property
//! covers every layer below the harness: workload generation, the
//! platform frame kernel, the report, and the RTM's fused Q-table epoch
//! with its scratch buffers and bounded history ring. The second phase
//! runs the harness's own epoch kernel end to end. The third runs it
//! faulted and hardened, in the fault storm's shape: the fault
//! injector, the plausibility filter with its sensed-frame copy, and
//! migration's per-cluster slack buffer.
//!
//! The counter is per thread: every measured loop runs serially on the
//! test's own thread, so an allocation by any other thread of the test
//! process cannot leak into a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qgov::prelude::*;

/// Counts every allocation and reallocation passed to the system
/// allocator, on the thread that asks for it.
struct CountingAllocator;

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates (the allocator itself cannot recurse through it).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on the calling thread; a thread whose locals
/// are already torn down is not being measured.
fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// One harness epoch, identical to the epoch kernel's loop body on a
/// one-cluster chip with monitors set: simulate, record, decide, then
/// feed the streaming temporal monitors one stack-built
/// [`MonitorSample`].
#[allow(clippy::too_many_arguments)]
fn run_epoch(
    app: &mut SyntheticWorkload,
    platform: &mut Platform,
    rtm: &mut RtmGovernor,
    report: &mut RunReport,
    demand: &mut FrameDemand,
    work: &mut [WorkSlice],
    frame: &mut FrameResult,
    monitors: &mut PropertySet<MonitorSample>,
    epoch: u64,
) {
    app.next_frame_into(demand);
    // `to_work_slices_into` for a demand with one thread per core.
    work.fill(WorkSlice::IDLE);
    for (i, t) in demand.threads.iter().enumerate() {
        let core = i.min(work.len() - 1);
        work[core] = WorkSlice::new(
            work[core].cpu_cycles + t.cpu_cycles,
            work[core].mem_time + t.mem_time,
        );
    }
    platform
        .run_frame_into(work, SimTime::from_ms(40), frame)
        .expect("work sized to cores");
    report.record_frame(
        frame.frame_time,
        frame.wall_time,
        frame.energy,
        frame.cluster_opp,
        frame.met_deadline(),
    );
    let decision = rtm.decide(&EpochObservation {
        frame: &*frame,
        epoch,
    });
    monitors.observe(&MonitorSample {
        epoch,
        frame_time_ratio: frame.frame_time.ratio(SimTime::from_ms(40)),
        met_deadline: frame.met_deadline(),
        opp: frame.cluster_opp,
        temperature_c: frame.temperature.as_celsius(),
        energy_j: frame.energy.as_joules(),
        epsilon: rtm.exploration_epsilon().unwrap_or(f64::NAN),
        converged: rtm.has_converged().unwrap_or(false),
    });
    platform.set_cluster_opp(decision.resolve_cluster(platform.current_opp()));
    platform.add_overhead(rtm.processing_overhead());
}

#[test]
fn steady_state_decision_epoch_is_allocation_free() {
    const WARMUP: u64 = 600;
    const MEASURED: u64 = 400;
    const FRAMES: u64 = WARMUP + MEASURED;

    // Noisy constant workload: exploration keeps firing at the ε floor,
    // so the measured window exercises the EPD selection path too.
    let mut app = SyntheticWorkload::constant(
        "steady",
        Cycles::from_mcycles(160),
        SimTime::from_ms(40),
        FRAMES,
        4,
        5,
    )
    .with_noise(0.1);

    let mut platform = Platform::new(PlatformConfig::odroid_xu3_a15()).expect("valid platform");
    let cores = platform.cores();

    // Offline bounds and a bounded history ring: the long-horizon
    // configuration whose memory must not grow.
    let config = RtmConfig::paper(42)
        .with_workload_bounds(1e7, 1e9)
        .with_history(HistoryMode::LastN(64));
    let mut rtm = RtmGovernor::new(config).expect("valid config");

    // The harness-level monitor set: the shipped standard pack over
    // `MonitorSample`s, exactly what the epoch kernel feeds.
    // All its state is built here, before the measured window.
    let mut monitors = standard_pack("rtm", &PackConfig::paper());

    let ctx = GovernorContext::new(platform.opp_table().clone(), cores, SimTime::from_ms(40));
    let first = rtm.init(&ctx);
    platform.set_cluster_opp(first.resolve_cluster(platform.current_opp()));

    let mut report = RunReport::new("rtm", "steady", SimTime::from_ms(40));
    report.reserve_frames(FRAMES as usize);
    let mut demand = FrameDemand::default();
    let mut work = vec![WorkSlice::IDLE; cores];
    let mut frame = FrameResult::empty();

    // Warm-up: ε decay past the floor,
    // the history ring through its first compaction (2 × 64 pushes),
    // every scratch buffer grown to capacity.
    for epoch in 0..WARMUP {
        run_epoch(
            &mut app,
            &mut platform,
            &mut rtm,
            &mut report,
            &mut demand,
            &mut work,
            &mut frame,
            &mut monitors,
            epoch,
        );
    }
    assert!(
        rtm.is_exploitation(),
        "warm-up must reach the exploitation phase"
    );

    // Measured window: zero heap allocations across every epoch — with
    // the standard MonitorSample pack observing every sample.
    let before = allocation_count();
    for epoch in WARMUP..FRAMES {
        run_epoch(
            &mut app,
            &mut platform,
            &mut rtm,
            &mut report,
            &mut demand,
            &mut work,
            &mut frame,
            &mut monitors,
            epoch,
        );
    }
    let allocated = allocation_count() - before;
    assert_eq!(
        allocated, 0,
        "steady-state decision epochs must not allocate \
         ({allocated} allocations over {MEASURED} epochs)"
    );

    // The loop did real work: telemetry advanced and stayed bounded.
    assert_eq!(report.frames(), FRAMES);
    assert_eq!(rtm.history().len(), 64);
    assert!(rtm.exploration_count() > 0);

    // The pack really observed the whole run (reporting allocates; it
    // happens after the measured window).
    assert_eq!(monitors.epochs(), FRAMES);
    let pack_report = monitors.report();
    assert!(pack_report.is_clean(), "{}", pack_report.summary());

    // Second phase: the epoch kernel itself. A whole monitored
    // `run_manycore_experiment` run — ManyCoreRtm on a
    // 4-cluster mesh, offline bounds, bounded history, the standard
    // pack — allocates only while it sets up and reports, so a run of
    // 2N frames allocates exactly as often as a run of N. Debug builds'
    // reset probes allocate once per frame, so only release builds
    // assert it.
    let kernel_run = |frames: u64| {
        const CLUSTERS: usize = 4;
        let configs = (0..CLUSTERS)
            .map(|c| {
                RtmConfig::paper(50 + c as u64)
                    .with_workload_bounds(1e7, 1e9)
                    .with_history(HistoryMode::LastN(64))
            })
            .collect();
        let mut rtm = ManyCoreRtm::new(configs, MigrationConfig::greedy()).expect("valid configs");
        let mut app = SyntheticWorkload::constant(
            "kernel-steady",
            Cycles::from_mcycles(480),
            SimTime::from_ms(40),
            frames,
            16,
            5,
        )
        .with_noise(0.1);
        let topology = Topology::homogeneous_mesh(CLUSTERS, PlatformConfig::odroid_xu3_a15());
        let shares = [1.0 / CLUSTERS as f64; CLUSTERS];
        let mut monitors = standard_pack("rtm", &PackConfig::paper());
        let before = allocation_count();
        let outcome = run_manycore_experiment(
            &mut rtm,
            &mut app,
            topology,
            frames,
            &shares,
            EpochOptions {
                faults: None,
                monitors: Some(&mut monitors),
                cluster_reports: true,
            },
        );
        let allocated = allocation_count() - before;
        assert_eq!(outcome.report.frames(), frames);
        assert_eq!(outcome.cluster_reports.len(), CLUSTERS);
        allocated
    };
    let (short, long) = (kernel_run(WARMUP), kernel_run(2 * WARMUP));
    if cfg!(not(debug_assertions)) {
        assert_eq!(
            short,
            long,
            "the epoch kernel allocated in its steady state \
             ({short} allocations over {WARMUP} frames, {long} over {})",
            2 * WARMUP
        );
    }

    // Third phase: the faulted, hardened kernel in the fault storm's
    // shape — two A15 quads, the standard fault schedule (stuck PMUs, a
    // thermal spike, a permanent cluster drop), hardened agents with a
    // bounded history and the recovery monitors. It too allocates
    // only while it sets up and reports.
    let storm_run = |frames: u64| {
        const CLUSTERS: usize = 2;
        let configs = (0..CLUSTERS)
            .map(|c| {
                RtmConfig::paper(70 + c as u64)
                    .with_workload_bounds(1e7, 1e9)
                    .with_history(HistoryMode::LastN(64))
            })
            .collect();
        let mut rtm = ManyCoreRtm::new(configs, MigrationConfig::greedy())
            .expect("valid configs")
            .with_agent_hardening(HardeningConfig::paper());
        let mut app = fault_storm_app(7, frames);
        let topology = Topology::homogeneous_mesh(CLUSTERS, PlatformConfig::odroid_xu3_a15());
        let shares = [1.0 / CLUSTERS as f64; CLUSTERS];
        let plan = standard_fault_schedule(frames);
        let mut monitors = recovery_pack(
            fault_storm_drop_epoch(frames),
            FAULTSTORM_GRACE,
            &PackConfig::paper(),
        );
        let before = allocation_count();
        let outcome = run_manycore_experiment(
            &mut rtm,
            &mut app,
            topology,
            frames,
            &shares,
            EpochOptions {
                faults: Some(&plan),
                monitors: Some(&mut monitors),
                cluster_reports: true,
            },
        );
        let allocated = allocation_count() - before;
        assert_eq!(outcome.report.frames(), frames);
        assert!(rtm.cluster_dead(1), "the storm drops cluster 1");
        assert!(rtm.degraded_epochs() > 0, "the filter saw the faults");
        allocated
    };
    let (short, long) = (storm_run(WARMUP), storm_run(2 * WARMUP));
    if cfg!(not(debug_assertions)) {
        assert_eq!(
            short,
            long,
            "the faulted epoch kernel allocated in its steady state \
             ({short} allocations over {WARMUP} frames, {long} over {})",
            2 * WARMUP
        );
    }
}
