use std::io::{self, BufWriter, ErrorKind, Write};
use std::process::ExitCode;

/// Standard output that remembers whether a write hit a closed pipe:
/// `gentrius stand cat FILE.stand | head -1` closes our pipe after one
/// line, and that everyday idiom must end the run quietly, not as a
/// failure. Other I/O errors are real and keep failing loudly.
struct Stdout<W> {
    inner: W,
    broken_pipe: bool,
}

impl<W> Stdout<W> {
    fn note<T>(&mut self, r: io::Result<T>) -> io::Result<T> {
        if let Err(e) = &r {
            self.broken_pipe |= e.kind() == ErrorKind::BrokenPipe;
        }
        r
    }
}

impl<W: Write> Write for Stdout<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let r = self.inner.write(buf);
        self.note(r)
    }

    fn flush(&mut self) -> io::Result<()> {
        let r = self.inner.flush();
        self.note(r)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // One buffer in front of the line-buffered stdout, so a streamed tree
    // costs a copy, not a write.
    let mut out = Stdout {
        inner: BufWriter::new(io::stdout().lock()),
        broken_pipe: false,
    };
    let ran = gentrius_cli::run_to(&args, &mut out);
    // Whatever was written before an error stays printed.
    let flushed = out.flush();
    if out.broken_pipe {
        return ExitCode::SUCCESS;
    }
    match (ran, flushed) {
        (Err(e), _) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        (Ok(()), Err(e)) => {
            eprintln!("error: stdout: {e}");
            ExitCode::FAILURE
        }
        (Ok(()), Ok(())) => ExitCode::SUCCESS,
    }
}
