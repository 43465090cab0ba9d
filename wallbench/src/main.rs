//! Wall-clock benchmark of the SALIENT++ reproduction: the threaded
//! trainer, the k=2 distributed engine and the inference server.
//!
//! ```text
//! wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--inject <fault>]
//! ```
//!
//! Prints progress and check results on stderr and, as the last line of
//! stdout, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of the stage-by-stage replay with `--trace 1`. Exits 1 when a
//! correctness check fails and 2 on a usage error.

mod checks;
mod common;
mod dist;
mod replay;
mod report;
mod serve;
mod stats;
mod train;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["train_products", "dist_papers", "serve_products"];

/// A deliberately wrong input fed to one correctness check, to show the
/// check can fail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// `dist_papers`: doubles the measured remote-fetch count before the
    /// VIP-bound check.
    FetchCount,
    /// `serve_products`: flips one bit of one completion's checksum
    /// before the cache-transparency check.
    Checksum,
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub inject: Option<Fault>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut inject = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value) => workload = Some(value.to_string()),
            "--workload" => {
                return Err(format!("unknown workload {value:?} (known: {WORKLOADS:?})"))
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--inject" => {
                inject = Some(match value {
                    "fetch-count" => Fault::FetchCount,
                    "checksum" => Fault::Checksum,
                    _ => return Err(format!("unknown fault {value:?} (fetch-count, checksum)")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        inject,
    };
    match (args.inject, args.workload.as_str()) {
        (Some(Fault::FetchCount), w) if w != "dist_papers" => {
            Err("--inject fetch-count applies to dist_papers".into())
        }
        (Some(Fault::Checksum), w) if w != "serve_products" => {
            Err("--inject checksum applies to serve_products".into())
        }
        _ => Ok(args),
    }
}

/// Worker-pool size a workload runs with: `None` keeps the pool's default
/// of one worker per CPU. The pool forks fresh OS threads for every
/// parallel region, and serving and the engine run thousands of small
/// regions per second (per batch, per matrix product, on each of k = 2
/// machine threads), so on a shared virtual machine their wall time
/// followed thread creation and cross-CPU wake-ups more than the work:
/// run to run spreads reached 0.45. Those two workloads run the pool
/// serially, which also keeps the engine at k = 2 busy threads on a
/// 2-CPU host; the trainer's few large regions keep the parallel path.
fn pool_workers(workload: &str) -> Option<usize> {
    (workload != "train_products").then_some(1)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: wallbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--inject fetch-count|checksum]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // Set before anything reads it: the pool reads its size once, at
    // first use.
    match pool_workers(&args.workload) {
        Some(n) => std::env::set_var("SPP_POOL_WORKERS", n.to_string()),
        None => std::env::remove_var("SPP_POOL_WORKERS"),
    }
    let result = match args.workload.as_str() {
        "train_products" => train::run(&args),
        "dist_papers" => dist::run(&args),
        _ => serve::run(&args),
    };
    let (line, ok) = result.to_json(args.trace);
    println!("{line}");
    if !ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&argv(
            "--workload dist_papers --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "dist_papers");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert_eq!(a.inject, None);
    }

    #[test]
    fn only_the_trainer_runs_a_parallel_pool() {
        assert_eq!(pool_workers("train_products"), None);
        assert_eq!(pool_workers("dist_papers"), Some(1));
        assert_eq!(pool_workers("serve_products"), Some(1));
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload dist_papers --seed x --seconds 1 --trace 0",
            "--workload dist_papers --seed 1 --seconds 0 --trace 0",
            "--workload dist_papers --seed 1 --seconds 1 --trace 2",
            "--workload dist_papers --seed 1 --seconds 1",
            "--workload dist_papers --seed 1 --seconds 1 --trace 0 --inject checksum",
            "--workload dist_papers --seed",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }
}
