//! The four workloads: inputs made from the seed, the untraced closed
//! loop that yields the end-to-end metrics, and the traced run that
//! times each layer's public calls from outside.
//!
//! Every op is checked. A failed op is one that returns an error,
//! panics, leaves GMRES unconverged, or misses its accuracy check; it is
//! counted and the run goes on.

use crate::host;
use crate::metrics::{median, Record, MAX_LEVEL};
use crate::passes::{traced_eval, Scratch, PASSES};
use crate::spans::{self_times, Span, Spans};
use kifmm::core::PrecomputeCache;
use kifmm::geom::{corner_clusters, random_densities, sphere_grid, uniform_cube};
use kifmm::mpi::Comm;
use kifmm::parallel::{build_distributed_tree_with, ParallelFmm};
use kifmm::runtime::{thread_cpu_time, Dispatch};
use kifmm::solver::{apply_single_layer_direct, rigid_body_velocity};
use kifmm::tree::{build_lists, partition_points, Octree};
use kifmm::{
    direct_eval_src_trg, gmres, rel_l2_error, FmmOptions, GmresOptions, Kernel, Laplace, Plan,
    PlanCache, Point3, Session, SingleLayerOperator, Stokes, SurfaceQuadrature,
};
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

/// Order-6 relative ℓ² errors measured in EXPERIMENTS.md ("Accuracy"):
/// Laplace 5.1e-8, Stokes 1.5e-5. An op passes within ten times that.
const TOL_LAPLACE: f64 = 10.0 * 5.1e-8;
const TOL_STOKES: f64 = 10.0 * 1.5e-5;
/// Distributed potentials against the serial plan's: same passes, same
/// operators, different summation order in the exchanges.
const TOL_DIST_VS_SERIAL: f64 = 1e-10;
const SAMPLE: usize = 200;
const N: usize = 40_000;
const ORDER: usize = 6;

const GMRES: GmresOptions = GmresOptions {
    tol: 1e-4,
    max_iter: 300,
    restart: 60,
};
const MU: f64 = 1.0;
const RADIUS: f64 = 0.3;
const NODES_PER_SPHERE: usize = 300;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Sphere512,
    CubeBatch8,
    StokesPairGmres,
    ClustersP2,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "sphere512" => Workload::Sphere512,
            "cube_batch8" => Workload::CubeBatch8,
            "stokes_pair_gmres" => Workload::StokesPairGmres,
            "clusters_p2" => Workload::ClustersP2,
            _ => return None,
        })
    }
}

pub struct Run {
    pub seed: u64,
    pub seconds: f64,
}

/// What one run hands back: metric values, op counts, and the lines
/// printed above the result.
#[derive(Default)]
pub struct Outcome {
    pub record: Record,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

impl Outcome {
    fn check(&mut self, what: &str, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.failed += 1;
            eprintln!("perfbench: {what} failed: {e}");
        }
    }

    /// Print a per-workload metric by name with its median, sample count,
    /// min and max (the result line carries the metrics BENCHMARK.json
    /// lists).
    fn note(&mut self, name: &str, samples: &[f64], unit: &str) {
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        self.notes.push(format!(
            "{name:<12} median {:>13.6e} {unit:<6} n={:<3} min {min:.6e} max {max:.6e}",
            median(samples),
            samples.len()
        ));
    }
}

/// Run `op` closed-loop (the next call starts when the previous returns)
/// until `seconds` have passed and at least `min_ops` ran. `op` returns
/// its own wall time, so the correctness check it makes afterwards is not
/// timed; an error or a panic counts as a failed op.
fn closed_loop(
    out: &mut Outcome,
    what: &str,
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut() -> Result<f64, String>,
) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut ran = 0;
    while ran < min_ops || start.elapsed().as_secs_f64() < seconds {
        ran += 1;
        let r = catch_unwind(AssertUnwindSafe(&mut op))
            .unwrap_or_else(|p| Err(format!("panic: {}", panic_message(&p))));
        match r {
            Ok(w) => {
                walls.push(w);
                out.check(what, Ok(()));
            }
            Err(e) => out.check(what, Err(e)),
        }
    }
    walls
}

fn panic_message(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string payload".into())
}

/// `k` distinct indices below `n`, drawn from the seed.
fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut rng = kifmm::geom::rng::Rng::seed_from_u64(seed ^ 0x5eed_5a3b1e);
    let mut idx: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut idx);
    idx.truncate(k.min(n));
    idx.sort_unstable();
    idx
}

/// The values of the sampled targets, `dim` per target.
fn sampled(values: &[f64], sample: &[usize], dim: usize) -> Vec<f64> {
    sample
        .iter()
        .flat_map(|&i| values[i * dim..(i + 1) * dim].iter().copied())
        .collect()
}

fn within(err: f64, tol: f64, what: &str) -> Result<(), String> {
    if err <= tol {
        Ok(())
    } else {
        Err(format!("{what} {err:.3e} above {tol:.1e}"))
    }
}

/// A Laplace point workload with its sampled direct-sum reference.
struct Points {
    points: Vec<Point3>,
    dens: Vec<Vec<f64>>,
    sample: Vec<usize>,
    /// Direct potentials at the sample, per density vector.
    reference: Vec<Vec<f64>>,
    opts: FmmOptions,
    dispatch: Dispatch,
}

impl Points {
    fn new(
        points: Vec<Point3>,
        dens: Vec<Vec<f64>>,
        opts: FmmOptions,
        dispatch: Dispatch,
        seed: u64,
    ) -> Self {
        let sample = sample_indices(points.len(), SAMPLE, seed);
        let targets: Vec<Point3> = sample.iter().map(|&i| points[i]).collect();
        let reference = dens
            .iter()
            .map(|d| direct_eval_src_trg(&Laplace, &points, d, &targets))
            .collect();
        Points {
            points,
            dens,
            sample,
            reference,
            opts,
            dispatch,
        }
    }

    fn refs(&self) -> Vec<&[f64]> {
        self.dens.iter().map(Vec::as_slice).collect()
    }

    /// Relative ℓ² error on the sample, over every RHS.
    fn err(&self, pots: &[Vec<f64>]) -> f64 {
        let got: Vec<f64> = pots
            .iter()
            .flat_map(|p| sampled(p, &self.sample, 1))
            .collect();
        rel_l2_error(&got, &self.reference.concat())
    }

    /// Cold setup: fresh operator cache, tree, lists, plan, session.
    fn setup(&self) -> Result<Session<Laplace>, String> {
        let cache = PrecomputeCache::new();
        let plan = Plan::try_new_with_cache(Laplace, &self.points, self.opts, &cache)
            .map_err(|e| e.to_string())?;
        let mut s = Session::new(Arc::new(plan));
        s.set_parallel_eval(self.dispatch == Dispatch::Pool);
        Ok(s)
    }
}

fn laplace_points(w: Workload, seed: u64) -> Points {
    match w {
        Workload::Sphere512 => Points::new(
            sphere_grid(N, 8),
            vec![random_densities(N, 1, seed)],
            FmmOptions {
                order: ORDER,
                ..Default::default()
            },
            Dispatch::Serial,
            seed,
        ),
        Workload::CubeBatch8 => Points::new(
            uniform_cube(N, seed),
            (0..8)
                .map(|q| random_densities(N, 1, seed.wrapping_mul(8).wrapping_add(q + 1)))
                .collect(),
            FmmOptions {
                order: ORDER,
                max_pts_per_leaf: 1000,
                ..Default::default()
            },
            Dispatch::Pool,
            seed,
        ),
        Workload::ClustersP2 => Points::new(
            corner_clusters(N, seed),
            vec![random_densities(N, 1, seed)],
            FmmOptions {
                order: ORDER,
                ..Default::default()
            },
            Dispatch::Serial,
            seed,
        ),
        Workload::StokesPairGmres => unreachable!("not a Laplace point workload"),
    }
}

/// Cold setups, repeated so `setup_s` is a median.
fn timed_setups<T>(
    out: &mut Outcome,
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> (Vec<f64>, Option<T>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        last = None; // drop the previous setup before timing the next
        let t = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(&mut setup))
            .unwrap_or_else(|p| Err(format!("panic: {}", panic_message(&p))));
        let dt = t.elapsed().as_secs_f64();
        match r {
            Ok(v) => {
                times.push(dt);
                last = Some(v);
                out.check("setup", Ok(()));
            }
            Err(e) => out.check("setup", Err(e)),
        }
    }
    (times, last)
}

fn finish_e2e(out: &mut Outcome, setup: &[f64], ops: &[f64], rhs_per_op: &[f64]) {
    let r = &mut out.record;
    r.set("setup_s", median(setup));
    r.set("op_s", median(ops));
    let rates: Vec<f64> = rhs_per_op.iter().zip(ops).map(|(k, t)| k / t).collect();
    r.set("rhs_per_s", median(&rates));
    r.set("peak_rss_mb", host::peak_rss_mb());
    let fail_frac = out.failed as f64 / out.attempted.max(1) as f64;
    r.set("ok_frac", 1.0 - fail_frac);
    out.note("setup_s", setup, "s");
    out.note("fail_frac", &[fail_frac], "ratio");
}

// ---------------------------------------------------------------------
// End-to-end runs (tracing off)
// ---------------------------------------------------------------------

pub fn end_to_end(w: Workload, run: &Run) -> Outcome {
    match w {
        Workload::Sphere512 | Workload::CubeBatch8 => points_e2e(w, run),
        Workload::StokesPairGmres => stokes_e2e(run),
        Workload::ClustersP2 => clusters_e2e(run),
    }
}

fn points_e2e(w: Workload, run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let p = laplace_points(w, run.seed);
    let (setup, session) = timed_setups(&mut out, 5, || p.setup());
    let Some(session) = session else {
        return out_failed(out, &setup);
    };
    let refs = p.refs();
    let k = refs.len() as f64;
    let mut errs = Vec::new();
    let eval = |errs: &mut Vec<f64>| -> Result<f64, String> {
        let t = Instant::now();
        let reps = session.eval_many(&refs);
        let wall = t.elapsed().as_secs_f64();
        let pots: Vec<Vec<f64>> = reps.into_iter().map(|r| r.potentials).collect();
        let e = p.err(&pots);
        errs.push(e);
        within(e, TOL_LAPLACE, "sampled error").map(|()| wall)
    };
    // One warm-up op fills the session's scratch pool; it is checked but
    // not timed.
    closed_loop(&mut out, "warm-up eval", 0.0, 1, || eval(&mut errs));
    let ops = closed_loop(&mut out, "eval", run.seconds, 3, || eval(&mut errs));
    let rhs: Vec<f64> = vec![k; ops.len()];
    finish_e2e(&mut out, &setup, &ops, &rhs);
    let name = if w == Workload::CubeBatch8 {
        "batch_s"
    } else {
        "eval_s"
    };
    out.note(name, &ops, "s");
    out.note("rel_err", &errs, "ratio");
    out
}

/// The result of a run whose setup failed: no op timings.
fn out_failed(mut out: Outcome, setup: &[f64]) -> Outcome {
    finish_e2e(&mut out, setup, &[], &[]);
    out
}

/// The sedimenting pair: two Fibonacci spheres side by side, solved in
/// the body frame for a unit velocity along gravity (−z). The seed draws
/// the density of the one-matvec accuracy check; the solve itself is the
/// same for every seed, because its iteration count depends strongly on
/// the direction of motion (about 180 along −z, about 280 for other
/// directions) and a seeded direction would make `op_s` a lottery.
struct StokesPair {
    quad: SurfaceQuadrature,
    bc: Vec<f64>,
    /// Random density for the one-matvec accuracy check.
    dens: Vec<f64>,
    sample: Vec<usize>,
    opts: FmmOptions,
}

impl StokesPair {
    fn new(seed: u64) -> Self {
        let gap = 3.0 * RADIUS;
        let quads: Vec<SurfaceQuadrature> = [[-gap / 2.0, 0.0, 0.0], [gap / 2.0, 0.0, 0.0]]
            .iter()
            .map(|&c| SurfaceQuadrature::sphere(c, RADIUS, NODES_PER_SPHERE))
            .collect();
        let quad = SurfaceQuadrature::union(&quads);
        let bc = rigid_body_velocity(&quad, [0.0; 3], [0.0, 0.0, -1.0], [0.0; 3]);
        let dens = random_densities(quad.len(), 3, seed.wrapping_add(1));
        let sample = sample_indices(quad.len(), SAMPLE, seed);
        let opts = FmmOptions {
            order: ORDER,
            max_pts_per_leaf: 50,
            ..Default::default()
        };
        StokesPair {
            quad,
            bc,
            dens,
            sample,
            opts,
        }
    }

    fn kernel() -> Stokes {
        Stokes::new(MU)
    }

    /// One FMM matvec against the direct single-layer sum on the sample.
    fn matvec_err(&self, apply: impl Fn(&[f64]) -> Vec<f64>) -> f64 {
        let direct = apply_single_layer_direct(&Self::kernel(), &self.quad, &self.dens);
        rel_l2_error(
            &sampled(&apply(&self.dens), &self.sample, 3),
            &sampled(&direct, &self.sample, 3),
        )
    }

    /// A solve passes if GMRES converged and the residual of its solution
    /// under the direct operator is within the tolerance plus the FMM's
    /// own error.
    fn check_solve(&self, converged: bool, residual: f64, x: &[f64]) -> Result<(), String> {
        if !converged {
            return Err(format!("GMRES unconverged, residual {residual:.3e}"));
        }
        let sx = apply_single_layer_direct(&Self::kernel(), &self.quad, x);
        let r: Vec<f64> = sx.iter().zip(&self.bc).map(|(a, b)| a - b).collect();
        let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
        within(
            norm(&r) / norm(&self.bc),
            GMRES.tol + TOL_STOKES,
            "direct-operator residual",
        )
    }
}

fn stokes_e2e(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let pair = StokesPair::new(run.seed);
    let (setup, op) = timed_setups(&mut out, 3, || {
        let cache = PlanCache::unbounded();
        Ok(SingleLayerOperator::with_plan_cache(
            StokesPair::kernel(),
            pair.quad.clone(),
            pair.opts,
            &cache,
        ))
    });
    let Some(op) = op else {
        return out_failed(out, &setup);
    };
    let err = pair.matvec_err(|d| op.apply(d));
    out.check(
        "matvec accuracy",
        within(err, TOL_STOKES, "sampled matvec error"),
    );
    let mut iters = Vec::new();
    let solve = |iters: &mut Vec<f64>| -> Result<f64, String> {
        let t = Instant::now();
        let res = op.solve(&pair.bc, GMRES);
        let wall = t.elapsed().as_secs_f64();
        iters.push(res.iterations as f64);
        pair.check_solve(res.converged, res.residual, &res.x)
            .map(|()| wall)
    };
    // The accuracy matvec above already filled the session's scratch
    // pool, so the first solve is warm.
    let ops = closed_loop(&mut out, "solve", run.seconds, 3, || solve(&mut iters));
    finish_e2e(&mut out, &setup, &ops, &iters);
    out.note("solve_s", &ops, "s");
    out.note("gmres_iters", &iters, "count");
    let per_matvec: Vec<f64> = ops.iter().zip(&iters).map(|(t, i)| t / i).collect();
    out.note("eval_s", &per_matvec, "s");
    out.note("rel_err", &[err], "ratio");
    out
}

/// The distributed workload's inputs: the point set, its two-rank
/// partition, and the serial plan's potentials the ranks must reproduce.
struct Clusters {
    p: Points,
    groups: Vec<Vec<usize>>,
    local_points: Vec<Vec<Point3>>,
    local_dens: Vec<Vec<f64>>,
}

impl Clusters {
    fn new(seed: u64) -> Self {
        let p = laplace_points(Workload::ClustersP2, seed);
        let groups = partition_points(&p.points, 2).groups;
        let local_points = groups
            .iter()
            .map(|g| g.iter().map(|&i| p.points[i]).collect())
            .collect();
        let local_dens = groups
            .iter()
            .map(|g| g.iter().map(|&i| p.dens[0][i]).collect())
            .collect();
        Clusters {
            p,
            groups,
            local_points,
            local_dens,
        }
    }

    /// Scatter per-rank potentials (local original order) back into
    /// global order.
    fn gather(&self, locals: &[Vec<f64>]) -> Vec<f64> {
        let mut g = vec![0.0; self.p.points.len()];
        for (grp, loc) in self.groups.iter().zip(locals) {
            for (&gi, &v) in grp.iter().zip(loc) {
                g[gi] = v;
            }
        }
        g
    }

    fn check(&self, pots: &[f64], serial: &[f64]) -> (f64, Result<(), String>) {
        let got = sampled(pots, &self.p.sample, 1);
        let e = rel_l2_error(&got, &self.p.reference[0]);
        let d = rel_l2_error(pots, serial);
        let ok = within(e, TOL_LAPLACE, "sampled error")
            .and_then(|()| within(d, TOL_DIST_VS_SERIAL, "distance to the serial plan"));
        (e, ok)
    }
}

/// One rank's view of one distributed op.
#[derive(Clone, Default)]
struct RankOp {
    pots: Vec<f64>,
    wall: f64,
    cpu: f64,
    msgs: u64,
    bytes: u64,
}

/// State the two rank threads share outside the communicator, so the
/// benchmark's own coordination sends no messages.
struct Lockstep {
    barrier: Barrier,
    stop: AtomicBool,
    slots: Mutex<Vec<RankOp>>,
}

impl Lockstep {
    fn new(ranks: usize) -> Self {
        Lockstep {
            barrier: Barrier::new(ranks),
            stop: AtomicBool::new(false),
            slots: Mutex::new(vec![RankOp::default(); ranks]),
        }
    }

    fn put(&self, rank: usize, op: RankOp) {
        self.slots.lock().expect("rank slot poisoned")[rank] = op;
    }

    /// The ranks' results of the op just joined, leaving empty slots.
    fn take(&self) -> Vec<RankOp> {
        let mut slots = self.slots.lock().expect("rank slot poisoned");
        let ranks = slots.len();
        std::mem::replace(&mut *slots, vec![RankOp::default(); ranks])
    }
}

/// Per-rank timing, traffic and potentials of one distributed eval.
fn rank_eval(comm: &Comm, pf: &ParallelFmm<Laplace>, dens: &[f64]) -> RankOp {
    let s0 = comm.stats();
    let c0 = thread_cpu_time();
    let t = Instant::now();
    let pots = pf.eval(comm, dens).potentials;
    let wall = t.elapsed().as_secs_f64();
    let cpu = thread_cpu_time() - c0;
    let s1 = comm.stats();
    RankOp {
        pots,
        wall,
        cpu,
        msgs: s1.messages_sent - s0.messages_sent,
        bytes: s1.bytes_sent - s0.bytes_sent,
    }
}

/// The distributed closed loop: cold setups on both ranks, then evals
/// until `seconds` pass. Rank 0 times each op from the barrier that
/// starts it to the barrier that joins both ranks, and checks it.
struct DistLoop {
    setup: Vec<f64>,
    setup_msgs: u64,
    setup_bytes: u64,
    ops: Vec<RankOpSet>,
}

struct RankOpSet {
    wall: f64,
    ranks: Vec<RankOp>,
}

fn dist_loop(
    c: &Clusters,
    setups: usize,
    seconds: f64,
    min_ops: usize,
    spans: Option<&Spans>,
) -> DistLoop {
    let ls = Lockstep::new(2);
    let caches: Vec<PrecomputeCache<Laplace>> =
        (0..setups).map(|_| PrecomputeCache::new()).collect();
    let res = kifmm::mpi::run(2, |comm| {
        let rank = comm.rank();
        let local = &c.local_points[rank];
        let mut setup = Vec::new();
        let (mut smsgs, mut sbytes) = (0, 0);
        let mut pf = None;
        for cache in &caches {
            drop(pf.take()); // the previous setup goes before the next is timed
            if let Some(sp) = spans {
                ls.barrier.wait();
                sp.time("dist.tree", 0, None, rank, |_| {
                    build_distributed_tree_with(
                        comm,
                        local,
                        c.p.opts.max_pts_per_leaf,
                        c.p.opts.max_level,
                        c.p.opts.tree_build,
                    )
                });
            }
            ls.barrier.wait();
            let s0 = comm.stats();
            let t = Instant::now();
            let built = match spans {
                Some(sp) => sp.time("dist.setup", 0, None, rank, |_| {
                    ParallelFmm::with_cache(comm, Laplace, local, c.p.opts, cache)
                }),
                None => ParallelFmm::with_cache(comm, Laplace, local, c.p.opts, cache),
            };
            let s1 = comm.stats();
            ls.barrier.wait();
            setup.push(t.elapsed().as_secs_f64());
            smsgs += s1.messages_sent - s0.messages_sent;
            sbytes += s1.bytes_sent - s0.bytes_sent;
            pf = Some(built);
        }
        let pf = pf.expect("at least one setup");
        let mut ops = Vec::new();
        let mut start = Instant::now();
        let mut op_id = 0u64;
        loop {
            ls.barrier.wait();
            if ls.stop.load(Ordering::SeqCst) {
                break;
            }
            op_id += 1;
            let t = Instant::now();
            let r = match spans {
                Some(sp) => sp.time("dist.eval", op_id, None, rank, |_| {
                    rank_eval(comm, &pf, &c.local_dens[rank])
                }),
                None => rank_eval(comm, &pf, &c.local_dens[rank]),
            };
            ls.put(rank, r);
            ls.barrier.wait();
            if rank == 0 {
                let wall = t.elapsed().as_secs_f64();
                ops.push(RankOpSet {
                    wall,
                    ranks: ls.take(),
                });
                // ops[0] is the warm-up; the measured window starts after it.
                if ops.len() == 1 {
                    start = Instant::now();
                }
                let done = ops.len() > min_ops && start.elapsed().as_secs_f64() >= seconds;
                ls.stop.store(done, Ordering::SeqCst);
            }
        }
        // Sum setup traffic over ranks through the return values.
        (setup, smsgs, sbytes, ops)
    });
    let mut it = res.into_iter();
    let (setup, m0, b0, ops) = it.next().expect("rank 0");
    let (_, m1, b1, _) = it.next().expect("rank 1");
    DistLoop {
        setup,
        setup_msgs: m0 + m1,
        setup_bytes: b0 + b1,
        ops,
    }
}

/// The serial plan's potentials for the clusters input: the reference
/// the distributed result must reproduce.
fn serial_reference(c: &Clusters) -> Result<Vec<f64>, String> {
    let s = c.p.setup()?;
    Ok(s.eval(&c.p.dens[0]).potentials)
}

fn clusters_e2e(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let c = Clusters::new(run.seed);
    let serial = match catch_unwind(AssertUnwindSafe(|| serial_reference(&c))) {
        Ok(Ok(s)) => s,
        Ok(Err(e)) => {
            out.check("serial reference", Err(e));
            return out_failed(out, &[]);
        }
        Err(p) => {
            out.check("serial reference", Err(panic_message(&p)));
            return out_failed(out, &[]);
        }
    };
    let dl = match catch_unwind(AssertUnwindSafe(|| dist_loop(&c, 5, run.seconds, 3, None))) {
        Ok(dl) => dl,
        Err(p) => {
            out.check("distributed run", Err(panic_message(&p)));
            return out_failed(out, &[]);
        }
    };
    for _ in &dl.setup {
        out.check("setup", Ok(()));
    }
    let mut errs = Vec::new();
    let (mut walls, mut bytes, mut msgs) = (Vec::new(), Vec::new(), Vec::new());
    for (i, op) in dl.ops.iter().enumerate() {
        let pots = c.gather(&op.ranks.iter().map(|r| r.pots.clone()).collect::<Vec<_>>());
        let (e, ok) = c.check(&pots, &serial);
        out.check(if i == 0 { "warm-up eval" } else { "eval" }, ok.clone());
        errs.push(e);
        if i > 0 && ok.is_ok() {
            walls.push(op.wall);
            bytes.push(op.ranks.iter().map(|r| r.bytes as f64).sum());
            msgs.push(op.ranks.iter().map(|r| r.msgs as f64).sum());
        }
    }
    let rhs = vec![1.0; walls.len()];
    finish_e2e(&mut out, &dl.setup, &walls, &rhs);
    out.note("eval_s", &walls, "s");
    out.note("rel_err", &errs, "ratio");
    out.note("comm_bytes", &bytes, "B");
    out.note("comm_msgs", &msgs, "count");
    out
}

// ---------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------

pub fn traced(w: Workload, run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let spans = Spans::new();
    let caches = host::caches();
    let outer = host::outer_cache_bytes(&caches);
    let gemm = host::gemm_gflops();
    let triad = host::triad(outer);
    out.record.set("ceiling.gemm_gflops", gemm);
    out.record.set("ceiling.triad_gbs", triad.gbs);
    out.notes.push(format!(
        "ceilings: gemm 96x96x96 single thread {gemm:.3} GF/s; triad {:.3} GB/s computed \
         (3 arrays of {} MiB each, >= 4 x {} MiB of L2+L3 cache)",
        triad.gbs,
        triad.array_bytes >> 20,
        outer >> 20
    ));
    match w {
        Workload::Sphere512 | Workload::CubeBatch8 => {
            let p = laplace_points(w, run.seed);
            trace_points(&mut out, &p, run, &spans, gemm);
        }
        Workload::StokesPairGmres => trace_stokes(&mut out, run, &spans, gemm),
        Workload::ClustersP2 => trace_clusters(&mut out, run, &spans, gemm),
    }
    out.spans = spans.snapshot();
    out
}

/// Setup split into its layers, each timed around its public call:
/// tree, lists, operator tables (fresh cache), then the plan with the
/// tables warm. Returns the plan and records the shape counts.
fn trace_setup<K: Kernel>(
    out: &mut Outcome,
    spans: &Spans,
    kernel: &K,
    points: &[Point3],
    opts: FmmOptions,
) -> Option<Plan<K>> {
    let plan = spans.time("setup", 0, None, 0, |setup| {
        let tree = spans.time("tree.build", 0, Some(setup), 0, |_| {
            Octree::build(points, opts.max_pts_per_leaf, opts.max_level)
        });
        let lists = spans.time("tree.lists", 0, Some(setup), 0, |_| build_lists(&tree));
        let cache = PrecomputeCache::new();
        spans.time("precompute", 0, Some(setup), 0, |_| {
            cache.get_or_build(kernel, &opts, tree.domain.half, tree.depth())
        });
        drop(lists);
        spans.time("plan", 0, Some(setup), 0, |_| {
            Plan::try_new_with_cache(kernel.clone(), points, opts, &cache)
        })
    });
    let plan = match plan {
        Ok(p) => p,
        Err(e) => {
            out.check("setup", Err(e.to_string()));
            return None;
        }
    };
    out.check("setup", Ok(()));
    let r = &mut out.record;
    r.set("plan.bytes", plan.approx_bytes() as f64);
    let tree = &plan.tree;
    r.set("tree.depth", tree.depth() as f64);
    let leaves: Vec<u32> = tree.leaves().collect();
    r.set("tree.leaves", leaves.len() as f64);
    let max_leaf = leaves
        .iter()
        .map(|&l| tree.nodes[l as usize].num_points())
        .max()
        .unwrap_or(0);
    r.set("tree.max_leaf_pts", max_leaf as f64);
    let v: Vec<usize> = (0..tree.num_nodes())
        .filter(|&b| tree.nodes[b].key.level >= 2)
        .map(|b| plan.lists.v[b].len())
        .collect();
    r.set(
        "lists.v_mean",
        v.iter().sum::<usize>() as f64 / v.len().max(1) as f64,
    );
    r.set("lists.v_max", v.iter().copied().max().unwrap_or(0) as f64);
    Some(plan)
}

/// Durations of every span called `name`.
fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .collect()
}

/// Per-pass metrics from the `eval` spans: median seconds per eval,
/// exact flops, rate against the single-thread GEMM ceiling times the
/// threads the dispatch uses, and share of the eval's counted flops.
fn pass_metrics(out: &mut Outcome, spans: &[Span], flops: &[u64; 7], gemm: f64, threads: usize) {
    let st = self_times(spans);
    let overhead: Vec<f64> = spans
        .iter()
        .zip(&st)
        .filter(|(s, _)| s.name == "eval")
        .map(|(_, t)| *t)
        .collect();
    let total: u64 = flops.iter().sum();
    let r = &mut out.record;
    r.set("session.overhead_s", median(&overhead));
    for (i, p) in PASSES.iter().enumerate() {
        let s = median(&durations(spans, &format!("engine.{p}")));
        let gf = flops[i] as f64 / s / 1e9;
        r.set(format!("engine.{p}_s"), s);
        r.set(format!("engine.{p}_flops"), flops[i] as f64);
        r.set(format!("engine.{p}_gflops"), gf);
        r.set(
            format!("engine.{p}_frac_peak"),
            gf / (gemm * threads as f64),
        );
        r.set(
            format!("engine.{p}_flop_share"),
            flops[i] as f64 / total.max(1) as f64,
        );
    }
    for level in 2..=MAX_LEVEL {
        let d = durations(spans, &format!("engine.m2l_L{level}"));
        if !d.is_empty() {
            r.set(format!("engine.m2l_L{level}_s"), median(&d));
        }
    }
    // One eval's wall time is its passes plus its own (session) time.
    if let Some(last) = spans.iter().rposition(|s| s.name == "eval") {
        let passes: f64 = spans
            .iter()
            .filter(|s| s.parent == Some(last))
            .map(Span::duration)
            .sum();
        out.notes.push(format!(
            "last eval: wall {:.6} s = passes {passes:.6} s + session {:.6} s",
            spans[last].duration(),
            st[last]
        ));
    }
    // Self time per span name, summed over the run, for the record.
    let mut names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    let line: Vec<String> = names
        .iter()
        .map(|n| {
            let t: f64 = spans
                .iter()
                .zip(&st)
                .filter(|(s, _)| s.name == *n)
                .map(|(_, t)| t)
                .sum();
            format!("{n}={t:.4}")
        })
        .collect();
    out.notes.push(format!("self_s: {}", line.join(" ")));
}

fn setup_metrics(out: &mut Outcome, spans: &[Span]) {
    for (span, metric) in [
        ("tree.build", "tree.build_s"),
        ("tree.lists", "tree.lists_s"),
        ("precompute", "precompute.s"),
        ("plan", "plan.s"),
    ] {
        out.record.set(metric, median(&durations(spans, span)));
    }
}

/// Untraced evals through the session, then traced evals through the
/// engine; the two must agree bit for bit. Returns the session's
/// potentials.
fn trace_points(
    out: &mut Outcome,
    p: &Points,
    run: &Run,
    spans: &Spans,
    gemm: f64,
) -> Vec<Vec<f64>> {
    let Some(plan) = trace_setup(out, spans, &Laplace, &p.points, p.opts) else {
        return Vec::new();
    };
    let plan = Arc::new(plan);
    let mut session = Session::new(plan.clone());
    session.set_parallel_eval(p.dispatch == Dispatch::Pool);
    let refs = p.refs();
    let threads = p.dispatch.threads();

    let mut want = Vec::new();
    let cpu0 = host::process_cpu_s();
    let untraced = closed_loop(out, "untraced eval", run.seconds / 2.0, 2, || {
        let t = Instant::now();
        let reps = session.eval_many(&refs);
        let wall = t.elapsed().as_secs_f64();
        want = reps.into_iter().map(|r| r.potentials).collect();
        within(p.err(&want), TOL_LAPLACE, "sampled error").map(|()| wall)
    });
    let cpu = host::process_cpu_s() - cpu0;
    out.record.set(
        "pool.cpu_util",
        cpu / (untraced.iter().sum::<f64>() * threads as f64),
    );

    let mut scratch = Scratch::default();
    let mut flops = [0u64; 7];
    let mut op = 0;
    let traced = closed_loop(out, "traced eval", run.seconds / 2.0, 2, || {
        op += 1;
        let t = Instant::now();
        let (got, f) = traced_eval(&plan, p.dispatch, &refs, &mut scratch, spans, op, None);
        let wall = t.elapsed().as_secs_f64();
        flops = f;
        if got == want {
            Ok(wall)
        } else {
            Err("traced potentials differ from Session::eval".into())
        }
    });
    let snap = spans.snapshot();
    setup_metrics(out, &snap);
    pass_metrics(out, &snap, &flops, gemm, threads);
    out.record.set(
        "trace.overhead_frac",
        median(&traced) / median(&untraced) - 1.0,
    );
    want
}

fn trace_stokes(out: &mut Outcome, run: &Run, spans: &Spans, gemm: f64) {
    let pair = StokesPair::new(run.seed);
    let kernel = StokesPair::kernel();
    let Some(plan) = trace_setup(out, spans, &kernel, &pair.quad.points, pair.opts) else {
        return;
    };
    let plan = Arc::new(plan);
    let op = SingleLayerOperator::with_plan(pair.quad.clone(), plan.clone());
    let err = pair.matvec_err(|d| op.apply(d));
    out.check(
        "matvec accuracy",
        within(err, TOL_STOKES, "sampled matvec error"),
    );

    let mut want = Vec::new();
    let cpu0 = host::process_cpu_s();
    let untraced = closed_loop(out, "untraced solve", run.seconds / 2.0, 1, || {
        let t = Instant::now();
        let res = op.solve(&pair.bc, GMRES);
        let wall = t.elapsed().as_secs_f64();
        want = res.x.clone();
        pair.check_solve(res.converged, res.residual, &res.x)
            .map(|()| wall)
    });
    let cpu = host::process_cpu_s() - cpu0;
    out.record
        .set("pool.cpu_util", cpu / untraced.iter().sum::<f64>());

    // GMRES with a matvec closure that weights the density and runs the
    // traced eval, as `SingleLayerOperator::apply` does through a session.
    let weights = &pair.quad.weights;
    let scratch = RefCell::new(Scratch::default());
    let flops = Cell::new([0u64; 7]);
    let mut iters = Vec::new();
    let mut solve_op = 0u64;
    let traced = closed_loop(out, "traced solve", run.seconds / 2.0, 1, || {
        solve_op += 1;
        let t = Instant::now();
        let res = spans.time("gmres.solve", solve_op, None, 0, |solve| {
            let matvec = |x: &[f64]| -> Vec<f64> {
                spans.time("gmres.matvec", solve_op, Some(solve), 0, |mv| {
                    let w: Vec<f64> = x
                        .iter()
                        .enumerate()
                        .map(|(i, v)| v * weights[i / 3])
                        .collect();
                    let (mut pots, f) = traced_eval(
                        &plan,
                        Dispatch::Serial,
                        &[&w],
                        &mut scratch.borrow_mut(),
                        spans,
                        solve_op,
                        Some(mv),
                    );
                    flops.set(f);
                    pots.pop().expect("one RHS")
                })
            };
            gmres(matvec, &pair.bc, None, GMRES)
        });
        let wall = t.elapsed().as_secs_f64();
        iters.push(res.iterations as f64);
        pair.check_solve(res.converged, res.residual, &res.x)?;
        if res.x == want {
            Ok(wall)
        } else {
            Err("traced solve differs from SingleLayerOperator::solve".into())
        }
    });
    let snap = spans.snapshot();
    let st = self_times(&snap);
    let solves: Vec<usize> = (0..snap.len())
        .filter(|&i| snap[i].name == "gmres.solve")
        .collect();
    let matvec_s: Vec<f64> = solves
        .iter()
        .map(|&s| {
            snap.iter()
                .filter(|m| m.parent == Some(s))
                .map(Span::duration)
                .sum()
        })
        .collect();
    let krylov: Vec<f64> = solves.iter().map(|&s| st[s]).collect();
    let r = &mut out.record;
    r.set("gmres.iters", median(&iters));
    r.set("gmres.matvec_s", median(&matvec_s));
    r.set("gmres.krylov_s", median(&krylov));
    r.set(
        "trace.overhead_frac",
        median(&traced) / median(&untraced) - 1.0,
    );
    setup_metrics(out, &snap);
    let f = flops.get();
    pass_metrics(out, &snap, &f, gemm, 1);
}

fn trace_clusters(out: &mut Outcome, run: &Run, spans: &Spans, gemm: f64) {
    let c = Clusters::new(run.seed);
    // Pass-level numbers come from the serial plan over the same points;
    // `ParallelFmm`'s passes are not reachable from outside.
    let Some(serial) = trace_points(
        out,
        &c.p,
        &Run {
            seed: run.seed,
            seconds: run.seconds / 2.0,
        },
        spans,
        gemm,
    )
    .pop() else {
        return;
    };
    let dl = dist_loop(&c, 1, run.seconds / 2.0, 2, Some(spans));
    let snap = spans.snapshot();
    let mut rank_cpu = Vec::new();
    let mut imbalance = Vec::new();
    let mut wait = Vec::new();
    let mut util = Vec::new();
    for (i, op) in dl.ops.iter().enumerate() {
        let pots = c.gather(&op.ranks.iter().map(|r| r.pots.clone()).collect::<Vec<_>>());
        out.check("distributed eval", c.check(&pots, &serial).1);
        if i == 0 {
            continue;
        }
        let cpus: Vec<f64> = op.ranks.iter().map(|r| r.cpu).collect();
        let max = cpus.iter().copied().fold(0.0, f64::max);
        let min = cpus.iter().copied().fold(f64::INFINITY, f64::min);
        rank_cpu.push(max);
        imbalance.push(max / min);
        wait.push(op.ranks.iter().map(|r| r.wall - r.cpu).fold(0.0, f64::max));
        util.push(cpus.iter().sum::<f64>() / (op.wall * cpus.len() as f64));
    }
    let last = dl.ops.last().expect("at least one distributed op");
    let r = &mut out.record;
    r.set(
        "dist.setup_s",
        durations(&snap, "dist.setup")
            .into_iter()
            .fold(0.0, f64::max),
    );
    r.set(
        "dist.tree_s",
        durations(&snap, "dist.tree")
            .into_iter()
            .fold(0.0, f64::max),
    );
    r.set("dist.rank_cpu_s", median(&rank_cpu));
    r.set("dist.imbalance", median(&imbalance));
    r.set("dist.wait_s", median(&wait));
    r.set("comm.setup_msgs", dl.setup_msgs as f64);
    r.set("comm.setup_bytes", dl.setup_bytes as f64);
    r.set(
        "comm.eval_msgs",
        last.ranks.iter().map(|x| x.msgs as f64).sum(),
    );
    r.set(
        "comm.eval_bytes",
        last.ranks.iter().map(|x| x.bytes as f64).sum(),
    );
    // Rank-thread CPU over each joined eval's wall time, both ranks.
    r.set("pool.cpu_util", median(&util));
}
