//! Command-line entry point; see the library docs for the workloads.
//!
//! ```sh
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints notes, then as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 2 on a usage error.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let mut report = perfbench::run(&args);
    if args.trace {
        report.finish_per_layer();
    }
    for note in &report.notes {
        println!("# {note}");
    }
    println!("{}", report.json_line());
}
