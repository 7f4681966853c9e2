//! One FMM evaluation driven pass by pass from outside the library.
//!
//! `Session::eval` runs `Plan::execute`, which calls the `PassEngine`
//! passes in a fixed order between a Morton permutation of the densities
//! and the inverse permutation of the potentials. The traced run makes
//! the same calls through `Plan::engine`, each inside its own span, so
//! every pass is timed around its public entry point and the rest of the
//! evaluation (permutations, store preparation, allocation) is the
//! `eval` span's self time. The potentials must equal `Session::eval`'s
//! bit for bit; the traced run checks that.

use crate::spans::{SpanId, Spans};
use kifmm::core::{EngineWorkspace, ExpansionStore, LocalSources, FIRST_FMM_LEVEL};
use kifmm::runtime::Dispatch;
use kifmm::{Kernel, Plan};

/// The passes in execution order, as named in the metrics
/// (`engine.<pass>_s`).
pub const PASSES: [&str; 7] = ["up", "m2l", "x", "l2l", "u", "w", "l2t"];

/// Evaluation state reused across traced evaluations, as a session
/// pools it.
#[derive(Default)]
pub struct Scratch {
    store: Option<ExpansionStore>,
    ws: EngineWorkspace,
}

/// Evaluate `densities` (original point order, one vector per RHS) and
/// return the potentials (original order) and the counted flops of each
/// pass, in [`PASSES`] order.
pub fn traced_eval<K: Kernel>(
    plan: &Plan<K>,
    dispatch: Dispatch,
    densities: &[&[f64]],
    scratch: &mut Scratch,
    spans: &Spans,
    op: u64,
    parent: Option<SpanId>,
) -> (Vec<Vec<f64>>, [u64; 7]) {
    spans.time("eval", op, parent, 0, |eval| {
        let kernel = plan.kernel();
        let (sd, td) = (kernel.src_dim(), kernel.trg_dim());
        let n = plan.len();
        let perm = &plan.tree.perm;
        let sorted: Vec<Vec<f64>> = densities
            .iter()
            .map(|d| {
                let mut s = vec![0.0; n * sd];
                for (i, &orig) in perm.iter().enumerate() {
                    for c in 0..sd {
                        s[i * sd + c] = d[orig as usize * sd + c];
                    }
                }
                s
            })
            .collect();
        let dens: Vec<&[f64]> = sorted.iter().map(Vec::as_slice).collect();
        let engine = plan.engine(dispatch);
        let store = scratch
            .store
            .get_or_insert_with(|| engine.new_store_many(dens.len()));
        engine.prepare_store(store, dens.len());
        let ws = &mut scratch.ws;
        let src = LocalSources {
            tree: &plan.tree,
            points: plan.morton_points(),
            dens: &dens,
            src_dim: sd,
        };
        let depth = plan.tree.depth();
        let far = depth >= FIRST_FMM_LEVEL;
        let mut flops = [0u64; 7];
        let mut pass = |i: usize, f: &mut dyn FnMut(SpanId) -> u64| {
            flops[i] = spans.time(&format!("engine.{}", PASSES[i]), op, Some(eval), 0, f);
        };
        pass(0, &mut |_| {
            if far {
                engine.upward(&src, store, ws)
            } else {
                0
            }
        });
        pass(1, &mut |m2l| {
            let mut total = 0;
            if far {
                for level in FIRST_FMM_LEVEL..=depth {
                    total += spans.time(&format!("engine.m2l_L{level}"), op, Some(m2l), 0, |_| {
                        engine.m2l_level(level, store, ws)
                    });
                }
            }
            total
        });
        pass(2, &mut |_| if far { engine.x_pass(&src, store) } else { 0 });
        pass(3, &mut |_| if far { engine.l2l(store, ws) } else { 0 });
        let mut pots: Vec<Vec<f64>> = (0..dens.len()).map(|_| vec![0.0; n * td]).collect();
        let mut outs: Vec<&mut [f64]> = pots.iter_mut().map(Vec::as_mut_slice).collect();
        pass(4, &mut |_| engine.u_pass(&src, &mut outs));
        pass(5, &mut |_| engine.w_pass(store, &mut outs));
        pass(6, &mut |_| engine.l2t(store, &mut outs));
        drop(outs);
        let unsorted = pots
            .into_iter()
            .map(|p| {
                let mut out = vec![0.0; n * td];
                for (i, &orig) in perm.iter().enumerate() {
                    out[orig as usize * td..(orig as usize + 1) * td]
                        .copy_from_slice(&p[i * td..(i + 1) * td]);
                }
                out
            })
            .collect();
        (unsorted, flops)
    })
}
