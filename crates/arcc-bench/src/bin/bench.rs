//! The bench-ladder program: `bench record <suite>` writes the
//! committed `BENCH_<suite>.json` (best of 3 passes per rung), `bench
//! gate <suite>` re-measures the same rungs and exits non-zero when one
//! falls more than 30% below that record, and `bench replay-log <path>`
//! replays a field-data fault log. Suites: `codec`, `fleet`, `replay`,
//! `serve`.

fn main() {
    std::process::exit(arcc_bench::bench_main(std::env::args().skip(1)));
}
