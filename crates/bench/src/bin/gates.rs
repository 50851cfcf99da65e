//! The gate runner: `gates` runs all nine gates, `gates <name>...` the
//! named ones. Each gate writes `BENCH_<name>.json` in the working
//! directory. Exits 1 if any selected gate failed (after all of them ran),
//! 2 on an unknown gate name.

use titant_bench::gates;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let selected = match gates::select(&names) {
        Ok(selected) => selected,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut failed = Vec::new();
    for (name, run) in selected {
        eprintln!("==> gate {name}");
        let outcome = run();
        let path = format!("BENCH_{name}.json");
        std::fs::write(&path, &outcome.json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        if outcome.pass {
            eprintln!("    pass ({path})");
        } else {
            eprintln!("FAIL: gate {name} violated (see {path})");
            failed.push(name);
        }
    }
    if !failed.is_empty() {
        eprintln!("gates failed: {}", failed.join(", "));
        std::process::exit(1);
    }
}
