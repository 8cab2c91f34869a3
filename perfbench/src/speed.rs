//! The machine's speed, read from a fixed reference kernel.
//!
//! On a shared host the same serial code runs up to a third slower for
//! seconds to minutes at a time, in every process at once, so the medians
//! of a whole run move with the host's load rather than with the program.
//! The benchmark therefore times a small kernel of its own (sorting,
//! hashing and floating point over a few MB, the mix the pre-train and
//! tune paths run) right before and right after each timed piece of work,
//! and reports that work at reference speed: wall time × [`REFERENCE_S`] ÷
//! the mean of the two kernel times that bracket it. The kernel works on
//! buffers allocated once, so it measures the machine rather than the
//! allocator, and it does not call the program, so a change to the
//! program cannot move it.

use std::time::Instant;

/// Kernel time that defines reference speed, in seconds: the kernel's
/// typical time on the 2-vCPU Xeon VM the benchmark was built on (16–20 ms
/// as the host's load varied).
pub const REFERENCE_S: f64 = 0.018;

/// The reference kernel and its buffers.
struct Kernel {
    keys: Vec<u64>,
    table: Vec<u64>,
}

impl Kernel {
    fn new() -> Kernel {
        Kernel {
            keys: vec![0; 300_000],
            table: vec![0; 1 << 16],
        }
    }

    /// Wall time of one run, in seconds.
    fn run(&mut self) -> f64 {
        let t = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for k in self.keys.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *k = x;
        }
        self.keys.sort_unstable();
        self.table.fill(0);
        let mask = self.table.len() as u64 - 1;
        for (i, k) in self.keys.iter().enumerate() {
            let slot = ((k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) & mask) as usize;
            self.table[slot] = self.table[slot].wrapping_add(i as u64 ^ k);
        }
        let mut f = 0.0f64;
        for i in 0..2_000_000 {
            f = f.mul_add(0.999_999, (i as f64).sqrt());
        }
        std::hint::black_box((self.table[7], f));
        t.elapsed().as_secs_f64()
    }
}

/// Brackets consecutive pieces of work with kernel runs.
pub struct Gauge {
    kernel: Kernel,
    /// Every kernel time taken, in seconds.
    pub samples: Vec<f64>,
}

impl Gauge {
    /// A gauge that has timed the kernel once, before the first piece of
    /// work. An untimed run first touches the buffers, so that no sample
    /// pays for faulting them in.
    pub fn start() -> Gauge {
        let mut kernel = Kernel::new();
        kernel.run();
        let first = kernel.run();
        Gauge {
            kernel,
            samples: vec![first],
        }
    }

    /// Time the kernel without closing a piece of work, so that the next
    /// piece is bracketed by a fresh sample after an unmeasured pause.
    pub fn rebase(&mut self) {
        let sample = self.kernel.run();
        self.samples.push(sample);
    }

    /// Time the kernel again, after a piece of work, and return the factor
    /// that turns that work's wall time into reference-speed time.
    pub fn factor(&mut self) -> f64 {
        let before = *self.samples.last().expect("started with one sample");
        let after = self.kernel.run();
        self.samples.push(after);
        REFERENCE_S / ((before + after) / 2.0)
    }
}
