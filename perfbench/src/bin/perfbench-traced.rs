//! Traced benchmark run (`--trace 1`), and `--pin <workload>`, which
//! prints the workload's pin file computed from the current code. This
//! binary alone installs the allocation counter, so the untraced binary
//! measures the program with the system allocator untouched.

#[global_allocator]
static ALLOC: perfbench::alloc::ThreadCounter = perfbench::alloc::ThreadCounter;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, name] = argv.as_slice() {
        if flag == "--pin" {
            match perfbench::workload::Workload::parse(name) {
                Ok(w) => print!("{}", perfbench::pins::generate(w)),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    std::process::exit(2);
                }
            }
            return;
        }
    }
    std::process::exit(perfbench::main_with(true));
}
