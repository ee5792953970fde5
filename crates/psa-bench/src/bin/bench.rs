//! `bench` — the workspace's one command line: `bench tables
//! <section|all>` prints tables 1–3 and the in-text numbers, `bench
//! <3|5|6|7|8>` writes `BENCH_<id>.json`, `bench chaos` / `bench sessions`
//! print the transcripts `tests/golden/` pins, and `bench animate` runs one
//! workload on any executor, optionally writing its frames as PPMs. The
//! command line lives in `psa_bench::cli`.

fn main() {
    std::process::exit(psa_bench::cli::run(std::env::args().skip(1)));
}
