//! Records `expected/figures.json`, the figure programs' expected
//! outputs, after checking that all six variants under both dispatch
//! engines agree on each program's output and end normally.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml \
//!     --bin record-expected > perfbench/expected/figures.json
//! ```
//!
//! The benchmark itself only reads the file; it never regenerates it.

use smlc::{Dispatch, Job, Json, Session, Variant, VmConfig, VmResult};

fn main() {
    let mut doc = Json::obj();
    let mut disagreements = 0;
    for b in smlc_bench::benchmarks() {
        let src = b.source();
        let mut outputs = Vec::new();
        for v in Variant::ALL {
            let compiled = Session::default()
                .compile_job(&Job::with_variant(src.clone(), v))
                .unwrap_or_else(|e| panic!("{}/{}: {e}", b.name, v.name()));
            for dispatch in [Dispatch::Decode, Dispatch::Threaded] {
                let cfg = VmConfig {
                    dispatch,
                    ..v.vm_config()
                };
                let out = sml_vm::run(&compiled.machine, &cfg);
                let label = format!("{}/{}/{dispatch:?}", b.name, v.name());
                if !matches!(out.result, VmResult::Value(_)) {
                    eprintln!("{label}: ended {:?}", out.result);
                    disagreements += 1;
                }
                outputs.push((label, out.output));
            }
        }
        let (first_label, first) = &outputs[0];
        for (label, out) in &outputs[1..] {
            if out != first {
                eprintln!("{label} printed {out:?} but {first_label} printed {first:?}");
                disagreements += 1;
            }
        }
        eprintln!("{}: {} runs agree", b.name, outputs.len());
        doc = doc.field(b.name, first.as_str());
    }
    if disagreements > 0 {
        eprintln!("{disagreements} disagreements; nothing recorded");
        std::process::exit(1);
    }
    println!("{}", doc.to_string_pretty());
}
