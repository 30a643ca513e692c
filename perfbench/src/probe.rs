//! Host-speed probe.
//!
//! The host the benchmark is built for is shared: the same binary's
//! throughput drifts by ±20–30% over minutes, even in a pure CPU loop, and
//! no amount of repetition inside one run averages that out. The timed run
//! therefore samples this probe between jobs (never inside a timed call)
//! and rescales each pass's host times to the probe's nominal speed:
//! `reported = measured × NOMINAL_S / median(the pass's probe samples)`.
//!
//! The probe is a fixed, branchy integer interpreter whose jumps wander
//! over a 1 MiB table, so it misses in the host's caches as the simulator
//! does. It shares no code with the program: a change to the program
//! cannot move it, so the rescaling removes host drift and nothing else.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Typical host seconds of one probe sample on the 2-CPU Xeon (2.1 GHz)
/// host the benchmark was built on, so rescaled times read as host time
/// there.
pub const NOMINAL_S: f64 = 0.0045;

/// How often the timed run samples the probe.
pub const EVERY: Duration = Duration::from_millis(100);

const WORDS: usize = 1 << 18;
const STEPS: u32 = 300_000;

/// The probe's table and its samples.
pub struct Probe {
    table: Vec<u32>,
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl Probe {
    /// A probe with no samples.
    pub fn new() -> Self {
        Probe {
            table: vec![0; WORDS],
            samples: Vec::new(),
            last: None,
        }
    }

    /// Host seconds for one run of the interpreter. Every run does the
    /// same work: it starts from the same table.
    pub fn sample(&mut self) -> f64 {
        let table = &mut self.table;
        let mut x = 0x9E37_79B9u32;
        for w in table.iter_mut() {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            *w = x;
        }
        let t = Instant::now();
        let mut pc = 0usize;
        for i in 0..STEPS {
            let w = table[pc];
            pc = match w & 7 {
                0 => {
                    table[pc] = w.wrapping_add(i) | 1;
                    pc + 1
                }
                1 => pc + (w as usize % 97) + 1,
                2 | 3 => {
                    table[(pc * 7) % WORDS] ^= i;
                    pc + 3
                }
                4 => {
                    table[pc] = w.rotate_left(5) ^ i;
                    pc + 11
                }
                _ => {
                    table[pc] = w.wrapping_mul(2_654_435_761).wrapping_add(w & 7);
                    pc + (w as usize >> 3)
                }
            } % WORDS;
        }
        black_box(&table);
        t.elapsed().as_secs_f64()
    }

    /// Takes a sample if none has been taken since the last
    /// [`Probe::take`], or if [`EVERY`] has gone by since the last one.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= EVERY) {
            let s = self.sample();
            self.samples.push(s);
            self.last = Some(Instant::now());
        }
    }

    /// The samples [`Probe::tick`] took since the last call.
    pub fn take(&mut self) -> Vec<f64> {
        self.last = None;
        std::mem::take(&mut self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_timed_and_spaced() {
        let mut p = Probe::new();
        assert!(p.sample() > 0.0);
        p.tick();
        p.tick();
        assert_eq!(
            p.take().len(),
            1,
            "a second tick within EVERY takes no sample"
        );
        p.tick();
        assert_eq!(p.take().len(), 1, "the first tick after take samples");
        std::thread::sleep(EVERY);
        p.tick();
        assert_eq!(p.take().len(), 1);
    }
}
