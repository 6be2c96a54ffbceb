//! Emits the deterministic profile-report bundle (`BENCH_pr2.json`).
//!
//! Usage: `profile_report [--seed N] > BENCH_pr2.json` (default seed 2014,
//! matching the golden-trace suite).

fn usage() -> ! {
    eprintln!("usage: profile_report [--seed N]");
    std::process::exit(2);
}

fn main() {
    let mut seed = 2014u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
    }
    print!("{}", k2_bench::profile_report_bundle(seed));
}
