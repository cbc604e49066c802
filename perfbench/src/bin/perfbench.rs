//! Untraced benchmark run (`--trace 0`).

fn main() {
    std::process::exit(perfbench::main_with(false));
}
