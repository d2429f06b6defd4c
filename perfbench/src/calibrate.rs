//! Host calibration: how slow is this box *right now*?
//!
//! The reference box is a 2-vCPU microVM on a shared host. Its
//! compute speed is steady, but its memory system is not: a fixed
//! kernel of random read-modify-writes over a 16 MB table takes 14 ms
//! in a quiet minute and 20–25 ms in a busy one, a compute-only kernel
//! moves by 3 %, and every workload here moves with the first — two
//! runs of the same binary a few minutes apart disagreed by 20–35 %.
//! No run length averages that out, because the busy periods outlast
//! a run.
//!
//! So every run measures the box as well as the program. A child
//! process (its 16 MB table stays out of the workload's `VmHWM`) times
//! that kernel between timed units, and the run's time-based
//! end-to-end metrics are scaled by `NOMINAL_MS ÷ median(sample)`:
//! they read as what a quiet reference box would have shown. The raw
//! values and the factor are printed beside them and kept in
//! `history.jsonl`. Across quiet and busy periods this cut the spread
//! of repeated runs from 18–35 % to 2–9 %.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// What a sample reads on the reference box in a quiet minute.
pub const NOMINAL_MS: f64 = 14.0;

const TABLE_WORDS: usize = 2 << 20;
const UPDATES: usize = 3_000_000;

/// One timing of the kernel: xorshift-addressed read-modify-writes
/// over `table` (memory-latency bound, TLB-hostile — like the hash
/// tables and relations the workloads live in).
fn kernel_ms(table: &mut [u64]) -> f64 {
    let start = Instant::now();
    let mask = table.len() - 1;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..UPDATES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & mask;
        table[i] = table[i].wrapping_add(x);
    }
    std::hint::black_box(&table);
    start.elapsed().as_secs_f64() * 1e3
}

/// `bench calibrate`: the child's loop. One sample per line read from
/// standard input, until it closes.
pub fn serve() {
    let mut table = vec![0u64; TABLE_WORDS];
    kernel_ms(&mut table); // touch every page before the first sample
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    for _ in stdin.lock().lines() {
        // The workload has just had the caches to itself; one untimed
        // pass brings the table back, so the timed pass sees what the
        // host leaves a program that runs, not what the last unit
        // happened to evict.
        kernel_ms(&mut table);
        if writeln!(out, "{}", kernel_ms(&mut table))
            .and_then(|()| out.flush())
            .is_err()
        {
            return;
        }
    }
}

/// The parent's handle on the calibration child.
pub struct Calibrator {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    samples_ms: Vec<f64>,
}

impl Calibrator {
    /// Starts `bench calibrate` (this executable) as a child.
    pub fn start() -> std::io::Result<Calibrator> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("calibrate")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        Ok(Calibrator {
            child,
            stdin,
            stdout,
            samples_ms: Vec::new(),
        })
    }

    /// Times the kernel once, now. The caller's thread blocks while
    /// the child works, so the sample sees the box the workload sees.
    pub fn sample(&mut self) {
        let Some(stdin) = self.stdin.as_mut() else {
            return;
        };
        let mut line = String::new();
        let answered = stdin
            .write_all(b"\n")
            .and_then(|()| stdin.flush())
            .and_then(|()| self.stdout.read_line(&mut line));
        if let (Ok(_), Ok(ms)) = (answered, line.trim().parse::<f64>()) {
            self.samples_ms.push(ms);
        }
    }

    /// Median kernel time over the run's samples (`NOMINAL_MS` if the
    /// child never answered, which leaves the metrics unscaled).
    pub fn median_ms(&self) -> f64 {
        if self.samples_ms.is_empty() {
            return NOMINAL_MS;
        }
        crate::report::median(&mut self.samples_ms.clone())
    }

    /// Closes the child's input and waits for it to end.
    pub fn stop(mut self) {
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_fixed_work_and_takes_measurable_time() {
        let mut table = vec![0u64; TABLE_WORDS];
        let first = kernel_ms(&mut table);
        let sum = |t: &[u64]| t.iter().fold(0u64, |a, b| a.wrapping_add(*b));
        let checksum = sum(&table);
        let mut again = vec![0u64; TABLE_WORDS];
        kernel_ms(&mut again);
        assert_eq!(checksum, sum(&again), "same updates every time");
        assert!(first > 1.0, "kernel took {first} ms");
    }
}
