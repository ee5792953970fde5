//! `bench` — the one command that produces every paper-reproduction
//! number: `bench tables <section|all>` prints tables 1–3 and the in-text
//! numbers, `bench <3|5|6|7|8>` writes `BENCH_<id>.json`. The command
//! line lives in `psa_bench::cli`.

fn main() {
    std::process::exit(psa_bench::cli::run(std::env::args().skip(1)));
}
