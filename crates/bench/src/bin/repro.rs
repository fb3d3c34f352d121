//! `repro [experiment ...]`: run the named experiments, or every one.

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = ids_bench::experiments::run(&names) {
        eprintln!("{e}");
        std::process::exit(2);
    }
}
