//! The four workloads. Each is a closed loop of identical rounds run
//! from one process: a round starts only after the previous one ends, and
//! the loop stops at the first round boundary past the run's seconds.
//!
//! * `panel` — the six corpus scenarios in turn (partial-update twice),
//!   one thread, native 1280×800 panel: raster, present chain and
//!   composition bound.
//! * `calls` — `nproc` threads driving long-lived sessions through all six
//!   scenarios on one shared 48×32 device: per-call cost bound.
//! * `churn` — `cycada_fleet::run_fleet` over the scripted mix with four
//!   metered frames per session, alternating with a launch round that
//!   drives the same sessions from outside so attach, setup and teardown
//!   are timed: lifecycle bound.
//! * `replay` — `.cyt` streams decoded and replayed with full checks on
//!   fresh private devices: the replay drive, codec and digests.

use std::time::Instant;

use cycada::{AppGl, CycadaDevice};
use cycada_fleet::{
    run_fleet, scenario_frame, scenario_setup, session_device, session_seed, solo_outcome,
    FleetConfig, Scenario,
};
use cycada_replay::{replay_stream, ReplayOptions, ReplayStream};
use cycada_sim::replay::{op, MARK_END, MARK_METER_BEGIN};
use cycada_sim::trace::{self, Counter};

use crate::measure::{gpu_add, gpu_delta, median, peak_rss_mb, Counters, Measured, Probe, Tally};
use crate::script::{Script, Walker};

/// The small display every call-bound workload uses.
pub const SMALL_DISPLAY: (u32, u32) = (48, 32);

/// Set-ups timed per run; `setup_s` is their median. `panel` times three:
/// one of its set-ups records and solo-runs seven native-panel sessions
/// (about 8 s on a 2-core host).
const SETUP_REPS: usize = 5;
const PANEL_SETUP_REPS: usize = 3;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed; per-session seeds derive from it with
    /// `cycada_fleet::session_seed`.
    pub seed: u64,
    /// Wall seconds of the timed loop.
    pub seconds: f64,
    /// Interleave traced rounds (per-layer timing, trace gate on) with
    /// untraced ones.
    pub trace: bool,
    /// Threads driving sessions (the host's core count).
    pub threads: usize,
    /// Smallest sizes and a single set-up (the self-test).
    pub smoke: bool,
    /// Corrupt the first session's reference digest (self-test of the
    /// correctness gate).
    pub corrupt_reference: bool,
}

/// Shape of one workload, for the run-context line.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Threads (or fleet workers) driving sessions.
    pub threads: usize,
    /// Display the devices boot with, `None` for the native panel.
    pub display: Option<(u32, u32)>,
    /// Display size in effect.
    pub panel: (u32, u32),
    /// Sessions per round.
    pub sessions: usize,
    /// Metered frames per session.
    pub frames: u32,
    /// Devices per round.
    pub devices: usize,
}

/// Simulated results two commits must agree on exactly.
#[derive(Debug, Default)]
pub struct SimSummary {
    /// Sessions in one round.
    pub sessions: usize,
    /// Sum of the references' metered virtual nanoseconds.
    pub virtual_ns: u64,
    /// Order-dependent fold of every reference `(hash, virtual ns)`.
    pub digest: u64,
    /// GPU work of the first round with a benchmark-booted device.
    pub gpu_round: Option<cycada_gpu::GpuStats>,
    /// Diplomat calls per traced round (the counter counts only while
    /// tracing).
    pub diplomat_calls_per_round: Option<u64>,
}

impl SimSummary {
    fn of(refs: &[(u64, u64)]) -> SimSummary {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for (hash, ns) in refs {
            for v in [*hash, *ns] {
                digest = (digest ^ v).wrapping_mul(0x0100_0000_01b3);
            }
        }
        SimSummary {
            sessions: refs.len(),
            virtual_ns: refs.iter().map(|r| r.1).sum(),
            digest,
            ..SimSummary::default()
        }
    }
}

/// Everything one run produced.
#[derive(Debug)]
pub struct RunResult {
    /// Samples and timings.
    pub measured: Measured,
    /// Workload shape.
    pub shape: Shape,
    /// Simulated results.
    pub sim: SimSummary,
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Runs `build` `reps` times (once in smoke mode), keeping the last result
/// and the median wall.
fn timed_setup<T>(
    cfg: &RunConfig,
    reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64, u64), String> {
    let reps = if cfg.smoke { 1 } else { reps };
    let mut walls = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        last = Some(build()?);
        walls.push(secs(elapsed_ns(t)));
    }
    Ok((
        last.expect("at least one set-up"),
        median(&mut walls),
        reps as u64,
    ))
}

/// Runs rounds until `cfg.seconds` have passed (at least one traced and
/// one untraced round in trace mode). `round(traced, m)` returns the wall
/// the tracing overhead is computed from.
///
/// Peak memory is read after the first round: every `AppGl` session leaks
/// its EGL context, so memory read at the end would grow with the number
/// of rounds a commit fits into the run and penalise a faster one. After
/// set-up plus one round the work done is fixed.
fn timed_loop(
    cfg: &RunConfig,
    m: &mut Measured,
    mut round: impl FnMut(bool, &mut Measured) -> u64,
) {
    let started = Instant::now();
    let mut k = 0u64;
    loop {
        let traced = cfg.trace && k % 2 == 1;
        trace::set_enabled(traced);
        let wall = round(traced, m);
        trace::set_enabled(false);
        if traced {
            m.probe.traced.add(wall);
        } else {
            m.probe.plain.add(wall);
        }
        if k == 0 {
            m.peak_rss_mb = peak_rss_mb();
        }
        k += 1;
        if secs(elapsed_ns(started)) >= cfg.seconds && (!cfg.trace || k >= 2) {
            break;
        }
    }
}

/// Side of the flinger's composition tile memo, in pixels.
const TILE_SIZE: u32 = 32;

fn tiles_per_composition((w, h): (u32, u32)) -> u64 {
    u64::from(w.div_ceil(TILE_SIZE)) * u64::from(h.div_ceil(TILE_SIZE))
}

fn panel_of(device: &CycadaDevice) -> (u32, u32) {
    let d = device.kernel().display();
    (d.width(), d.height())
}

// ----------------------------------------------------------------------
// panel and calls: scripted sessions driven call by call
// ----------------------------------------------------------------------

struct ScriptPool {
    scripts: Vec<Script>,
    refs: Vec<(u64, u64)>,
    /// Recordings that disagreed with their solo reference.
    mismatches: Vec<String>,
}

/// Records and solo-runs every session of a scripted workload. Session
/// `i` runs `kinds[i / threads]`, so every thread cycles through all the
/// kinds.
fn script_pool(
    workload: &str,
    cfg: &RunConfig,
    threads: usize,
    kinds: &[Scenario],
    frames: u32,
    panel: (u32, u32),
) -> Result<ScriptPool, String> {
    let mut pool = ScriptPool {
        scripts: Vec::new(),
        refs: Vec::new(),
        mismatches: Vec::new(),
    };
    for i in 0..threads * kinds.len() {
        let scenario = kinds[i / threads];
        let seed = session_seed(cfg.seed, i);
        let script = Script::record(scenario, seed, frames, panel)?;
        let mut reference = solo_outcome(scenario, seed, frames, panel)?;
        if cfg.corrupt_reference && i == 0 {
            reference.0 ^= 1;
        }
        if (script.end_digest, script.end_virtual_ns) != reference
            || script.frame_count() != frames as usize
        {
            pool.mismatches.push(format!(
                "workload={workload} session={i} scenario={} seed={seed}: recording ended at \
                 (hash {:#x}, {} ns, {} frames) but the solo reference is (hash {:#x}, {} ns, {frames} frames)",
                scenario.label(),
                script.end_digest,
                script.end_virtual_ns,
                script.frame_count(),
                reference.0,
                reference.1
            ));
        }
        pool.scripts.push(script);
        pool.refs.push(reference);
    }
    Ok(pool)
}

/// Drives one scripted session on `device`: attach, setup calls, metered
/// frames, digest, teardown. `probe` is set on traced rounds.
fn script_session(
    workload: &str,
    device: &CycadaDevice,
    index: usize,
    script: &Script,
    reference: (u64, u64),
    tally: &mut Tally,
    mut probe: Option<&mut Probe>,
) {
    let label = script.scenario.label();
    let seed = script.seed;
    let fail = |tally: &mut Tally, cause: String| {
        tally.fail(format!(
            "workload={workload} session={index} scenario={label} seed={seed}: {cause}"
        ))
    };
    tally.attempted += 1 + script.frames.len() as u64;

    let started = Instant::now();
    let mut app = match AppGl::attach_cycada(device, script.scenario.gles_version()) {
        Ok(app) => app,
        Err(e) => return fail(tally, format!("attach failed: {e}")),
    };
    let attach_ns = elapsed_ns(started);
    let mut walker = Walker::default();
    if let Err(e) = walker.run(
        &mut app,
        &script.setup,
        probe.as_deref_mut().map(|p| &mut p.setup_calls),
    ) {
        return fail(tally, format!("setup failed: {e}"));
    }
    let launch_ns = elapsed_ns(started);
    tally.launch_ns.push(launch_ns);
    if let Some(p) = probe.as_deref_mut() {
        p.attach.add(attach_ns);
        p.setup.add(launch_ns - attach_ns);
    }
    {
        let _scope = app.session_scope();
        for (f, ops) in script.frames.iter().enumerate() {
            let t = Instant::now();
            if let Err(e) = walker.run(&mut app, ops, probe.as_deref_mut().map(|p| &mut p.calls)) {
                return fail(tally, format!("frame {f} failed: {e}"));
            }
            let ns = elapsed_ns(t);
            tally.frame_ns.push(ns);
            if let Some(p) = probe.as_deref_mut() {
                p.frame_wall.add(ns);
            }
        }
    }
    let virtual_ns = app.session_virtual_ns();
    tally.virtual_ns += virtual_ns;
    let t = Instant::now();
    let hash = match app.render_hash() {
        Ok(h) => h,
        Err(e) => return fail(tally, format!("render_hash failed: {e}")),
    };
    let hash_ns = elapsed_ns(t);
    if (hash, virtual_ns) != reference {
        fail(
            tally,
            format!(
                "mismatch: (hash {hash:#x}, {virtual_ns} ns) against solo (hash {:#x}, {} ns)",
                reference.0, reference.1
            ),
        );
    }
    let t = Instant::now();
    drop(app);
    if let Some(p) = probe {
        p.render_hash.add(hash_ns);
        p.teardown.add(elapsed_ns(t));
    }
}

/// One round of a scripted workload: boot a fresh device, so every round
/// does the same simulated work, run every session of the pool split
/// across `threads`, drop the device.
fn script_round(
    workload: &str,
    pool: &ScriptPool,
    threads: usize,
    display: Option<(u32, u32)>,
    traced: bool,
    m: &mut Measured,
    sim: &mut SimSummary,
) -> u64 {
    let counters_before = Counters::now();
    let started = Instant::now();
    let boot = Instant::now();
    let device = match CycadaDevice::boot_with_display(display) {
        Ok(d) => d,
        Err(e) => {
            m.tally.attempted += 1;
            m.tally
                .fail(format!("workload={workload}: device boot failed: {e}"));
            return elapsed_ns(started);
        }
    };
    let boot_ns = elapsed_ns(boot);
    let gpu_before = device.gpu().stats();
    let parts: Vec<(Tally, Probe)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let device = &device;
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut probe = Probe::default();
                    for i in (t..pool.scripts.len()).step_by(threads) {
                        script_session(
                            workload,
                            device,
                            i,
                            &pool.scripts[i],
                            pool.refs[i],
                            &mut tally,
                            traced.then_some(&mut probe),
                        );
                    }
                    (tally, probe)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    });
    let wall = elapsed_ns(started);
    let gpu = gpu_delta(&gpu_before, &device.gpu().stats());
    drop(device);
    let counters = Counters::now().since(&counters_before);

    let frames: u64 = pool.scripts.iter().map(|s| s.frame_count() as u64).sum();
    for (tally, probe) in parts {
        m.tally.merge(tally);
        m.probe.merge_thread(&probe);
    }
    record_teardown_skips(workload, &counters, &mut m.tally);
    sim.gpu_round.get_or_insert(gpu);
    if traced {
        m.probe.boot.add(boot_ns);
        m.probe
            .add_round(Some(&gpu), &counters, frames, pool.scripts.len() as u64);
        sim.diplomat_calls_per_round
            .get_or_insert(counters.get(Counter::DiplomatCalls));
    } else {
        m.frames_wall_ns += wall;
    }
    wall
}

/// A frame fails when `present-teardown-skips` increases.
fn record_teardown_skips(workload: &str, counters: &Counters, tally: &mut Tally) {
    let skips = counters.get(Counter::PresentTeardownSkips);
    if skips > 0 {
        tally.failed += skips;
        tally.failures.push(format!(
            "workload={workload}: {skips} present teardown skips"
        ));
    }
}

fn scripted(
    workload: &'static str,
    cfg: &RunConfig,
    threads: usize,
    display: Option<(u32, u32)>,
    kinds: &[Scenario],
    frames: u32,
    setup_reps: usize,
) -> Result<RunResult, String> {
    let sessions = threads * kinds.len();
    let ((pool, panel), setup_s, setups) = timed_setup(cfg, setup_reps, || {
        let panel = panel_of(&CycadaDevice::boot_with_display(display).map_err(|e| e.to_string())?);
        Ok((
            script_pool(workload, cfg, threads, kinds, frames, panel)?,
            panel,
        ))
    })?;
    let mut m = Measured {
        setup_s,
        setups,
        ..Measured::default()
    };
    m.probe.tiles_per_composition = tiles_per_composition(panel);
    m.tally.attempted += pool.mismatches.len() as u64;
    for line in &pool.mismatches {
        m.tally.fail(line.clone());
    }
    let mut sim = SimSummary::of(&pool.refs);
    timed_loop(cfg, &mut m, |traced, m| {
        script_round(workload, &pool, threads, display, traced, m, &mut sim)
    });
    Ok(RunResult {
        measured: m,
        shape: Shape {
            threads,
            display,
            panel,
            sessions,
            frames,
            devices: 1,
        },
        sim,
    })
}

/// `panel`: each corpus scenario in turn on one thread at the native
/// panel, ten frames per session so a browser session scrolls through all
/// ten of its scroll positions.
///
/// Partial-update, the one scene the damage memo can help, runs a second
/// session per round. At this panel size the six scenes' frame (and
/// launch) times barely overlap; with seven equal blocks no median or
/// tail rank falls on the boundary between two scenes, where it would
/// jump between them from run to run.
pub fn panel(cfg: &RunConfig) -> Result<RunResult, String> {
    let frames = if cfg.smoke { 1 } else { 10 };
    let mut kinds = Scenario::CORPUS.to_vec();
    kinds.push(Scenario::PartialUpdate);
    scripted("panel", cfg, 1, None, &kinds, frames, PANEL_SETUP_REPS)
}

/// `calls`: `nproc` threads, each running all six scenarios twice per round
/// (two seeds per scene and thread), on one shared 48×32 device.
pub fn calls(cfg: &RunConfig) -> Result<RunResult, String> {
    let frames = if cfg.smoke { 2 } else { 32 };
    let kinds = [Scenario::CORPUS, Scenario::CORPUS].concat();
    scripted(
        "calls",
        cfg,
        cfg.threads,
        Some(SMALL_DISPLAY),
        &kinds,
        frames,
        SETUP_REPS,
    )
}

// ----------------------------------------------------------------------
// churn: the fleet orchestrator plus launch rounds timed from outside
// ----------------------------------------------------------------------

const CHURN_FRAMES: u32 = 4;
const CHURN_SESSIONS_PER_DEVICE: usize = 4;

fn fleet_round(cfg: &FleetConfig, refs: &[(u64, u64)], traced: bool, m: &mut Measured) -> u64 {
    let counters_before = Counters::now();
    let started = Instant::now();
    let result = run_fleet(cfg);
    let wall = elapsed_ns(started);
    let counters = Counters::now().since(&counters_before);
    let tally = &mut m.tally;
    tally.attempted += (cfg.sessions * (1 + cfg.frames as usize)) as u64;
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            tally.failed += cfg.sessions as u64;
            tally.failures.push(format!(
                "workload=churn seed={}: run_fleet failed: {e}",
                cfg.seed
            ));
            return wall;
        }
    };
    let mut busy = vec![0u64; cfg.devices];
    let (mut attach_ns, mut frames_ns) = (0u64, 0u64);
    for o in &report.outcomes {
        if (o.fb_hash, o.virtual_ns) != refs[o.session] {
            tally.fail(format!(
                "workload=churn session={} scenario={} seed={}: fleet (hash {:#x}, {} ns) against solo (hash {:#x}, {} ns)",
                o.session,
                o.scenario.label(),
                o.seed,
                o.fb_hash,
                o.virtual_ns,
                refs[o.session].0,
                refs[o.session].1
            ));
        }
        let f: u64 = o.frame_wall_ns.iter().sum();
        attach_ns += o.attach_wall_ns;
        frames_ns += f;
        busy[o.device] += o.attach_wall_ns + f;
        tally.frame_ns.extend_from_slice(&o.frame_wall_ns);
        tally.virtual_ns += o.virtual_ns;
    }
    record_teardown_skips("churn", &counters, tally);
    let p = &mut m.probe;
    if traced {
        p.fleet_attach_ns += attach_ns;
        p.fleet_frames_ns += frames_ns;
        p.fleet_capacity_ns += report.workers as u64 * report.wall_ns;
        p.fleet_busy_max_ns
            .push(busy.into_iter().max().unwrap_or(0));
        p.add_round(
            None,
            &counters,
            (cfg.sessions * cfg.frames as usize) as u64,
            cfg.sessions as u64,
        );
    } else {
        m.frames_wall_ns += wall;
    }
    wall
}

/// One task of a launch round, mirroring a fleet task from outside.
fn launch_session(
    device: &CycadaDevice,
    index: usize,
    fleet_seed: u64,
    reference: (u64, u64),
    tally: &mut Tally,
    probe: Option<&mut Probe>,
) {
    let scenario = Scenario::mix(index);
    let seed = session_seed(fleet_seed, index);
    let fail = |tally: &mut Tally, cause: String| {
        tally.fail(format!(
            "workload=churn launch session={index} scenario={} seed={seed}: {cause}",
            scenario.label()
        ))
    };
    tally.attempted += 1 + u64::from(CHURN_FRAMES);
    let started = Instant::now();
    let mut app = match AppGl::attach_cycada(device, scenario.gles_version()) {
        Ok(app) => app,
        Err(e) => return fail(tally, format!("attach failed: {e}")),
    };
    let attach_ns = elapsed_ns(started);
    let mut state = match scenario_setup(&mut app, scenario, seed) {
        Ok(s) => s,
        Err(e) => return fail(tally, format!("setup failed: {e}")),
    };
    let launch_ns = elapsed_ns(started);
    tally.launch_ns.push(launch_ns);
    {
        let _scope = app.session_scope();
        for f in 0..CHURN_FRAMES {
            if let Err(e) = scenario_frame(&mut app, &mut state, seed, f) {
                return fail(tally, format!("frame {f} failed: {e}"));
            }
        }
    }
    let t = Instant::now();
    let hash = match app.render_hash() {
        Ok(h) => h,
        Err(e) => return fail(tally, format!("render_hash failed: {e}")),
    };
    let hash_ns = elapsed_ns(t);
    let virtual_ns = app.session_virtual_ns();
    if (hash, virtual_ns) != reference {
        fail(
            tally,
            format!(
                "mismatch: (hash {hash:#x}, {virtual_ns} ns) against solo (hash {:#x}, {} ns)",
                reference.0, reference.1
            ),
        );
    }
    let t = Instant::now();
    drop(state);
    drop(app);
    if let Some(p) = probe {
        p.attach.add(attach_ns);
        p.setup.add(launch_ns - attach_ns);
        p.render_hash.add(hash_ns);
        p.teardown.add(elapsed_ns(t));
    }
}

/// Boots the fleet's devices and runs every session as a [`launch_session`]
/// on `cfg.workers` threads.
fn launch_round(
    cfg: &FleetConfig,
    refs: &[(u64, u64)],
    traced: bool,
    m: &mut Measured,
    sim: &mut SimSummary,
) {
    let counters_before = Counters::now();
    let mut devices = Vec::with_capacity(cfg.devices);
    for d in 0..cfg.devices {
        let t = Instant::now();
        match CycadaDevice::boot_with_display(Some(cfg.display)) {
            Ok(dev) => devices.push(dev),
            Err(e) => {
                m.tally.attempted += 1;
                m.tally.fail(format!(
                    "workload=churn launch device={d}: boot failed: {e}"
                ));
                return;
            }
        }
        if traced {
            m.probe.boot.add(elapsed_ns(t));
        }
    }
    let gpu_before: Vec<_> = devices.iter().map(|d| d.gpu().stats()).collect();
    let workers = cfg.workers;
    let parts: Vec<(Tally, Probe)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let devices = &devices;
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut probe = Probe::default();
                    for i in (w..cfg.sessions).step_by(workers) {
                        let device = &devices[session_device(i, devices.len())];
                        launch_session(
                            device,
                            i,
                            cfg.seed,
                            refs[i],
                            &mut tally,
                            traced.then_some(&mut probe),
                        );
                    }
                    (tally, probe)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("launch worker panicked"))
            .collect()
    });
    let mut gpu = cycada_gpu::GpuStats::default();
    for (d, before) in devices.iter().zip(&gpu_before) {
        let delta = gpu_delta(before, &d.gpu().stats());
        gpu_add(&mut gpu, &delta);
    }
    drop(devices);
    let counters = Counters::now().since(&counters_before);
    for (tally, probe) in parts {
        m.tally.merge(tally);
        m.probe.merge_thread(&probe);
    }
    record_teardown_skips("churn", &counters, &mut m.tally);
    sim.gpu_round.get_or_insert(gpu);
    if traced {
        m.probe.add_round(
            Some(&gpu),
            &counters,
            (cfg.sessions * CHURN_FRAMES as usize) as u64,
            cfg.sessions as u64,
        );
        sim.diplomat_calls_per_round
            .get_or_insert(counters.get(Counter::DiplomatCalls));
    }
}

/// `churn`: fleet rounds and launch rounds, alternating.
pub fn churn(cfg: &RunConfig) -> Result<RunResult, String> {
    let sessions = if cfg.smoke { 8 } else { 256 };
    let devices = sessions / CHURN_SESSIONS_PER_DEVICE;
    let mut fleet = FleetConfig::new("churn", devices, sessions);
    fleet.frames = CHURN_FRAMES;
    fleet.seed = cfg.seed;
    fleet.display = SMALL_DISPLAY;
    // `FleetConfig::new` clamps workers to at least 4; use the cores.
    fleet.workers = cfg.threads;
    let (refs, setup_s, setups) = timed_setup(cfg, SETUP_REPS, || {
        (0..sessions)
            .map(|i| {
                let mut r = solo_outcome(
                    Scenario::mix(i),
                    session_seed(cfg.seed, i),
                    CHURN_FRAMES,
                    SMALL_DISPLAY,
                )?;
                if cfg.corrupt_reference && i == 0 {
                    r.0 ^= 1;
                }
                Ok(r)
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut m = Measured {
        setup_s,
        setups,
        ..Measured::default()
    };
    m.probe.tiles_per_composition = tiles_per_composition(SMALL_DISPLAY);
    let mut sim = SimSummary::of(&refs);
    timed_loop(cfg, &mut m, |traced, m| {
        let wall = fleet_round(&fleet, &refs, traced, m);
        launch_round(&fleet, &refs, traced, m, &mut sim);
        wall
    });
    Ok(RunResult {
        measured: m,
        shape: Shape {
            threads: fleet.workers,
            display: Some(SMALL_DISPLAY),
            panel: SMALL_DISPLAY,
            sessions,
            frames: CHURN_FRAMES,
            devices,
        },
        sim,
    })
}

// ----------------------------------------------------------------------
// replay: decode and replay recorded streams with full checks
// ----------------------------------------------------------------------

struct Recorded {
    scenario: Scenario,
    seed: u64,
    bytes: Vec<u8>,
    end: (u64, u64),
    setup_presents: usize,
}

fn record_streams(cfg: &RunConfig, sessions: usize, frames: u32) -> Result<Vec<Recorded>, String> {
    (0..sessions)
        .map(|i| {
            let scenario = Scenario::CORPUS[i % Scenario::CORPUS.len()];
            let seed = session_seed(cfg.seed, i);
            let stream = cycada_replay::record_scenario(scenario, seed, frames, SMALL_DISPLAY)?;
            let end = stream
                .calls
                .iter()
                .find(|c| stream.name_of(c) == MARK_END)
                .and_then(|c| Some((*c.args.first()?, *c.args.get(1)?)))
                .ok_or_else(|| format!("{} stream has no end marker", scenario.label()))?;
            let setup_presents = stream
                .calls
                .iter()
                .take_while(|c| stream.name_of(c) != MARK_METER_BEGIN)
                .filter(|c| stream.name_of(c) == op::PRESENT)
                .count();
            let end = if cfg.corrupt_reference && i == 0 {
                (end.0 ^ 1, end.1)
            } else {
                end
            };
            Ok(Recorded {
                scenario,
                seed,
                bytes: stream.encode(),
                end,
                setup_presents,
            })
        })
        .collect()
}

/// Decodes and replays one recorded stream with full checks.
fn replay_session(index: usize, rec: &Recorded, tally: &mut Tally, probe: Option<&mut Probe>) {
    let fail = |tally: &mut Tally, cause: String| {
        tally.fail(format!(
            "workload=replay session={index} scenario={} seed={}: {cause}",
            rec.scenario.label(),
            rec.seed
        ))
    };
    tally.attempted += 1;
    let t = Instant::now();
    let stream = match ReplayStream::decode(&rec.bytes) {
        Ok(s) => s,
        Err(e) => return fail(tally, format!("decode failed: {e}")),
    };
    let decode_ns = elapsed_ns(t);
    let t = Instant::now();
    let outcome = replay_stream(&stream, &ReplayOptions::default());
    let session_ns = elapsed_ns(t);
    if let Some(p) = probe {
        p.decode.add(decode_ns);
        p.replay.add(session_ns);
    }
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => return fail(tally, format!("replay failed: {e}")),
    };
    let split = rec.setup_presents.min(outcome.present_wall_ns.len());
    let (setup, metered) = outcome.present_wall_ns.split_at(split);
    tally.attempted += metered.len() as u64;
    tally
        .launch_ns
        .push(outcome.attach_wall_ns + setup.iter().sum::<u64>());
    tally.frame_ns.extend_from_slice(metered);
    tally.virtual_ns += outcome.metered_ns;
    if (outcome.digest, outcome.metered_ns) != rec.end {
        fail(
            tally,
            format!(
                "mismatch: (hash {:#x}, {} ns) against the stream end marker (hash {:#x}, {} ns)",
                outcome.digest, outcome.metered_ns, rec.end.0, rec.end.1
            ),
        );
    }
}

fn replay_round(
    streams: &[Recorded],
    threads: usize,
    traced: bool,
    m: &mut Measured,
    sim: &mut SimSummary,
) -> u64 {
    let counters_before = Counters::now();
    let started = Instant::now();
    let parts: Vec<(Tally, Probe)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut probe = Probe::default();
                    for i in (t..streams.len()).step_by(threads) {
                        replay_session(i, &streams[i], &mut tally, traced.then_some(&mut probe));
                    }
                    (tally, probe)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let wall = elapsed_ns(started);
    let counters = Counters::now().since(&counters_before);
    let frames_before = m.tally.frame_ns.len();
    for (tally, probe) in parts {
        m.tally.merge(tally);
        m.probe.merge_thread(&probe);
    }
    let frames = (m.tally.frame_ns.len() - frames_before) as u64;
    record_teardown_skips("replay", &counters, &mut m.tally);
    if traced {
        m.probe
            .add_round(None, &counters, frames, streams.len() as u64);
        sim.diplomat_calls_per_round
            .get_or_insert(counters.get(Counter::DiplomatCalls));
    } else {
        m.frames_wall_ns += wall;
    }
    wall
}

/// `replay`: every corpus scenario recorded during set-up, then decoded
/// and replayed with full checks on fresh private devices.
pub fn replay(cfg: &RunConfig) -> Result<RunResult, String> {
    let (per_kind, frames) = if cfg.smoke { (1, 2) } else { (4, 64) };
    let sessions = Scenario::CORPUS.len() * per_kind;
    let (streams, setup_s, setups) =
        timed_setup(cfg, SETUP_REPS, || record_streams(cfg, sessions, frames))?;
    let mut m = Measured {
        setup_s,
        setups,
        ..Measured::default()
    };
    m.probe.tiles_per_composition = tiles_per_composition(SMALL_DISPLAY);
    let refs: Vec<(u64, u64)> = streams.iter().map(|s| s.end).collect();
    let mut sim = SimSummary::of(&refs);
    timed_loop(cfg, &mut m, |traced, m| {
        replay_round(&streams, cfg.threads, traced, m, &mut sim)
    });
    Ok(RunResult {
        measured: m,
        shape: Shape {
            threads: cfg.threads,
            display: Some(SMALL_DISPLAY),
            panel: SMALL_DISPLAY,
            sessions,
            frames,
            devices: sessions,
        },
        sim,
    })
}
