//! The metric names, units and directions, as `BENCHMARK.json` lists
//! them, and the record that collects their values in one run.

use crate::passes::PASSES;

/// Deepest M2L level with its own metric (the library's default
/// `max_level`).
pub const MAX_LEVEL: u8 = 12;

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// Read only by the test that holds `BENCHMARK.json` to this list.
    #[allow(dead_code)]
    pub better: &'static str,
}

fn m(name: impl Into<String>, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
    }
}

/// Reported on every workload with `--trace 0`.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        m("setup_s", "s", "lower"),
        m("op_s", "s", "lower"),
        m("rhs_per_s", "1/s", "higher"),
        m("peak_rss_mb", "MB", "lower"),
        m("ok_frac", "ratio", "higher"),
    ]
}

/// Reported on every workload with `--trace 1`; a layer the workload does
/// not reach reads 0.
pub fn per_layer() -> Vec<Metric> {
    let mut v = vec![
        m("precompute.s", "s", "lower"),
        m("tree.build_s", "s", "lower"),
        m("tree.lists_s", "s", "lower"),
        m("plan.s", "s", "lower"),
        m("plan.bytes", "B", "lower"),
        m("tree.depth", "count", "lower"),
        m("tree.leaves", "count", "lower"),
        m("tree.max_leaf_pts", "count", "lower"),
        m("lists.v_mean", "count", "lower"),
        m("lists.v_max", "count", "lower"),
    ];
    for p in PASSES {
        v.push(m(format!("engine.{p}_s"), "s", "lower"));
        v.push(m(format!("engine.{p}_flops"), "flop", "lower"));
        v.push(m(format!("engine.{p}_gflops"), "GF/s", "higher"));
        v.push(m(format!("engine.{p}_frac_peak"), "ratio", "higher"));
        v.push(m(format!("engine.{p}_flop_share"), "ratio", "lower"));
    }
    for level in 2..=MAX_LEVEL {
        v.push(m(format!("engine.m2l_L{level}_s"), "s", "lower"));
    }
    v.extend([
        m("session.overhead_s", "s", "lower"),
        m("gmres.iters", "count", "lower"),
        m("gmres.matvec_s", "s", "lower"),
        m("gmres.krylov_s", "s", "lower"),
        m("pool.cpu_util", "ratio", "higher"),
        m("dist.setup_s", "s", "lower"),
        m("dist.tree_s", "s", "lower"),
        m("dist.rank_cpu_s", "s", "lower"),
        m("dist.imbalance", "ratio", "lower"),
        m("dist.wait_s", "s", "lower"),
        m("comm.setup_msgs", "count", "lower"),
        m("comm.setup_bytes", "B", "lower"),
        m("comm.eval_msgs", "count", "lower"),
        m("comm.eval_bytes", "B", "lower"),
        m("ceiling.gemm_gflops", "GF/s", "higher"),
        m("ceiling.triad_gbs", "GB/s", "higher"),
        m("trace.overhead_frac", "ratio", "lower"),
    ]);
    v
}

/// Values measured in one run, by metric name.
#[derive(Default)]
pub struct Record {
    values: Vec<(String, f64)>,
}

impl Record {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the program reports is listed in `BENCHMARK.json`
    /// with the same unit and direction, and the other way round.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let listed = json.matches("\"name\"").count();
        let (e2e, layers) = (end_to_end(), per_layer());
        let workloads = json.matches("\"why\"").count();
        assert_eq!(listed, workloads + e2e.len() + layers.len(), "metric count");
        for x in e2e.iter().chain(&layers) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                x.name, x.unit, x.better
            );
            assert!(json.contains(&entry), "missing {entry}");
        }
    }
}
