//! What the record says about the machine and the build, and the
//! in-process probes: process CPU time, peak resident memory, and the
//! two ceilings the per-pass rates are compared against.

use kifmm::linalg::{gemm, Mat};
use std::hint::black_box;
use std::time::Instant;

/// One cache as sysfs reports it for CPU 0 and its siblings.
pub struct Cache {
    pub level: u32,
    pub kind: String,
    pub bytes: u64,
    pub shared_cpus: String,
}

/// Unique caches of this machine (deduplicated by level, type and the
/// CPUs sharing them).
pub fn caches() -> Vec<Cache> {
    let mut out: Vec<Cache> = Vec::new();
    let Ok(cpus) = std::fs::read_dir("/sys/devices/system/cpu") else {
        return out;
    };
    let mut cpu_dirs: Vec<_> = cpus
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
                n.strip_prefix("cpu")
                    .is_some_and(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
            })
        })
        .collect();
    cpu_dirs.sort();
    for cpu in cpu_dirs {
        let Ok(idx) = std::fs::read_dir(cpu.join("cache")) else {
            continue;
        };
        for e in idx.filter_map(Result::ok) {
            let p = e.path();
            let read = |f: &str| std::fs::read_to_string(p.join(f)).map(|s| s.trim().to_string());
            let (Ok(level), Ok(kind), Ok(size), Ok(shared)) = (
                read("level"),
                read("type"),
                read("size"),
                read("shared_cpu_list"),
            ) else {
                continue;
            };
            let Ok(level) = level.parse::<u32>() else {
                continue;
            };
            let bytes = parse_size(&size);
            if !out
                .iter()
                .any(|c| c.level == level && c.kind == kind && c.shared_cpus == shared)
            {
                out.push(Cache {
                    level,
                    kind,
                    bytes,
                    shared_cpus: shared,
                });
            }
        }
    }
    out.sort_by(|a, b| (a.level, &a.kind, &a.shared_cpus).cmp(&(b.level, &b.kind, &b.shared_cpus)));
    out
}

fn parse_size(s: &str) -> u64 {
    let (num, mult) = match s.chars().last() {
        Some('K') => (&s[..s.len() - 1], 1 << 10),
        Some('M') => (&s[..s.len() - 1], 1 << 20),
        Some('G') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().unwrap_or(0) * mult
}

/// Sum of the unified caches of level two and above: the bytes a
/// bandwidth probe must overflow.
pub fn outer_cache_bytes(caches: &[Cache]) -> u64 {
    caches
        .iter()
        .filter(|c| c.level >= 2 && c.kind == "Unified")
        .map(|c| c.bytes)
        .sum()
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout, read from `.git` in the working
/// directory without running git; "unknown" outside a git checkout.
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(c) = std::fs::read_to_string(format!(".git/{reference}")) {
        return c.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// CPU seconds of the whole process (all threads, exited ones too).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields, counted in clock ticks (100 per second
    // on Linux).
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return f64::NAN;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        f.get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<f64>().ok())
            })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Single-thread `kifmm_linalg::gemm` rate on a block whose three
/// operands fit in the per-core L2 cache. Best of 30 short trials: on a
/// shared host single trials vary by a third.
pub fn gemm_gflops() -> f64 {
    const N: usize = 96;
    let a = Mat::from_fn(N, N, |i, j| 1.0 + ((i * 7 + j * 3) % 11) as f64 * 0.01);
    let b = Mat::from_fn(N, N, |i, j| 1.0 - ((i * 5 + j) % 13) as f64 * 0.01);
    let mut c = Mat::zeros(N, N);
    let flops = 2.0 * (N * N * N) as f64;
    let reps = 40;
    let mut best = f64::INFINITY;
    for _ in 0..30 {
        let t = Instant::now();
        for _ in 0..reps {
            gemm(1.0, black_box(&a), black_box(&b), 0.0, &mut c);
        }
        best = best.min(t.elapsed().as_secs_f64());
        black_box(&c);
    }
    flops * reps as f64 / best / 1e9
}

pub struct Triad {
    pub gbs: f64,
    pub array_bytes: u64,
}

/// STREAM triad `a = b + s·c`, single thread, each array at least four
/// times `cache_bytes`. Bytes are computed from the array sizes (three
/// arrays streamed per sweep, write-allocate traffic not counted), not
/// measured. Best of three sweeps.
pub fn triad(cache_bytes: u64) -> Triad {
    let n = (4 * cache_bytes.max(1 << 20) / 8) as usize;
    let b = vec![1.5f64; n];
    let c = vec![0.25f64; n];
    let mut a = vec![0.0f64; n];
    let s = black_box(3.0);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        black_box(&a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    assert!(a[n / 2] == 1.5 + s * 0.25, "triad result");
    Triad {
        gbs: 3.0 * 8.0 * n as f64 / best / 1e9,
        array_bytes: 8 * n as u64,
    }
}
