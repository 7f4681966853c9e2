//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sphere512 --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Makes the named workload from the seed, drives it through the public
//! API and prints, as its last line, one JSON object with the op counts
//! and the metrics: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The traced run also writes its
//! spans as a chrome trace under `perfbench/out/`. See
//! `perfbench/README.md` for the workloads and what each metric means.

mod host;
mod metrics;
mod passes;
mod spans;
mod workloads;

use metrics::Metric;
use workloads::{Run, Workload};

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload_name = workload.ok_or("--workload is required")?;
    let workload = Workload::parse(&workload_name).ok_or_else(|| {
        format!("unknown workload {workload_name} (sphere512, cube_batch8, stokes_pair_gmres, clusters_p2)")
    })?;
    Ok(Args {
        workload,
        workload_name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// The host and build facts every record carries.
fn host_record(args: &Args) -> String {
    let caches: Vec<String> = host::caches()
        .iter()
        .map(|c| {
            format!(
                "L{} {} {} KiB cpus {}",
                c.level,
                c.kind,
                c.bytes >> 10,
                c.shared_cpus
            )
        })
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = std::env::var("KIFMM_NUM_THREADS").unwrap_or_else(|_| "unset".into());
    let simd = if kifmm::linalg::simd::simd_active() {
        "avx2"
    } else {
        "scalar"
    };
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"KIFMM_NUM_THREADS\":{},\"pool_threads\":{},\"simd\":\"{simd}\",\"cpu\":{},\
         \"caches\":[{}],\"commit\":{}}}",
        json_str(&args.workload_name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&threads),
        kifmm::runtime::num_threads(),
        json_str(&host::cpu_model()),
        caches
            .iter()
            .map(|c| json_str(c))
            .collect::<Vec<_>>()
            .join(","),
        json_str(&host::git_commit()),
    )
}

fn write_trace(args: &Args, spans: &[spans::Span]) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload_name, args.seed
    ));
    let res = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, spans::chrome_trace(spans)));
    match res {
        Ok(()) => println!("chrome trace: {} ({} spans)", path.display(), spans.len()),
        Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    println!("record: {}", host_record(&args));
    let run = Run {
        seed: args.seed,
        seconds: args.seconds as f64,
    };
    let (out, listed): (_, Vec<Metric>) = if args.trace {
        (workloads::traced(args.workload, &run), metrics::per_layer())
    } else {
        (
            workloads::end_to_end(args.workload, &run),
            metrics::end_to_end(),
        )
    };
    for n in &out.notes {
        println!("{n}");
    }
    if args.trace {
        write_trace(&args, &out.spans);
    }
    let mut correct = out.failed == 0 && out.attempted > 0;
    let mut fields = Vec::new();
    for m in &listed {
        // A per-layer metric whose layer the workload never reaches reads 0.
        let v = out
            .record
            .get(&m.name)
            .unwrap_or(if args.trace { 0.0 } else { f64::NAN });
        let v = if v.is_finite() {
            v
        } else {
            eprintln!("perfbench: {} is not a finite number", m.name);
            correct = false;
            0.0
        };
        fields.push(format!(
            "{}:{{\"value\":{v:?},\"unit\":{}}}",
            json_str(&m.name),
            json_str(m.unit)
        ));
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(",")
    );
}
