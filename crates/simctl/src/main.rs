fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match simctl::run(&args) {
        Ok((out, code)) => {
            print!("{out}");
            std::process::exit(code);
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}
