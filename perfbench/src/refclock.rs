//! The reference clock: host speed measured beside the workload.
//!
//! The benchmark runs on shared machines whose speed moves by 20–40 %
//! from one second to the next and over minutes, as neighbours load the
//! caches, memory and cores they share. Wall-clock throughput then
//! measures the neighbours more than the simulator. So the untraced
//! repetitions stop at fixed points (after each engine chunk, after
//! every few committed shards) and time one block of a fixed reference
//! kernel there. Each stretch of workload between two stops is booked
//! at the mean of the host speeds measured at its two ends, in
//! *reference seconds*: the time the reference kernel needs for
//! [`STEPS_PER_REF_S`] steps. On a loaded host the workload and the
//! kernel slow down together, and the reference-second count of the
//! work shrinks with them.
//!
//! The kernel is a set-associative LRU cache model driven by a fixed mix
//! of streaming and random line addresses: the same kind of work as the
//! simulator's `sim` layer, in code that lives in the benchmark, so no
//! change to the simulator changes the yardstick. Blocks are excluded
//! from every execution time. Throughput per reference second tracked
//! the simulator's work far better than a pointer chase, an ALU loop or
//! a small bytecode interpreter did (see `perfbench/README.md`).

use std::hint::black_box;
use std::time::Instant;

/// Sets and ways of the kernel's cache model: 256 KiB of 64-byte lines,
/// less than the 1 MiB stream and the 16 MiB random range it is fed, so
/// nearly every step misses and picks an LRU victim.
const SETS: usize = 512;
const WAYS: usize = 8;

/// Kernel steps per block: 20 to 45 ms on a shared 2.1 GHz Xeon.
pub const BLOCK_STEPS: u64 = 3_000_000;

/// Kernel steps that make one reference second: 0.65 to 1.45 wall
/// seconds on a shared 2.1 GHz Xeon, as its load changes.
pub const STEPS_PER_REF_S: f64 = 1e8;

/// The reference kernel and its cache model's state.
struct Kernel {
    tags: Vec<u64>,
    stamps: Vec<u64>,
    now: u64,
}

impl Kernel {
    fn new() -> Kernel {
        Kernel { tags: vec![u64::MAX; SETS * WAYS], stamps: vec![0; SETS * WAYS], now: 0 }
    }

    /// Runs one block and returns its hit count. Every block replays the
    /// same address stream, so from the second block on each does the
    /// same work.
    fn block(&mut self) -> u64 {
        let (mut x, mut stream, mut hits) = (0x1234_5678_u64, 0_u64, 0_u64);
        for _ in 0..BLOCK_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = if x % 4 == 0 {
                x % (1 << 24)
            } else {
                stream += 64;
                stream % (1 << 20)
            };
            self.now += 1;
            let line = addr >> 6;
            let base = (line as usize % SETS) * WAYS;
            let tags = &mut self.tags[base..base + WAYS];
            let stamps = &mut self.stamps[base..base + WAYS];
            if let Some(w) = tags.iter().position(|&t| t == line) {
                stamps[w] = self.now;
                hits += 1;
            } else {
                let mut victim = 0;
                for w in 1..WAYS {
                    if stamps[w] < stamps[victim] {
                        victim = w;
                    }
                }
                tags[victim] = line;
                stamps[victim] = self.now;
            }
        }
        hits
    }
}

/// What one timed stretch of work cost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Reading {
    /// Wall seconds of the work, blocks excluded.
    pub wall_s: f64,
    /// The same work in reference seconds.
    pub ref_s: f64,
    /// Wall seconds spent in blocks.
    pub blocks_s: f64,
    /// Blocks timed.
    pub blocks: usize,
}

/// Books work in wall and reference seconds between [`RefClock::tick`]s.
pub struct RefClock {
    kernel: Kernel,
    /// End of the last block: where the current stretch of work began.
    mark: Instant,
    /// Host speed (kernel steps per second) measured at `mark`.
    rate: f64,
    reading: Reading,
}

impl RefClock {
    /// A clock whose kernel has run once, so its cache model is warm.
    pub fn new() -> RefClock {
        let mut kernel = Kernel::new();
        black_box(kernel.block());
        RefClock { kernel, mark: Instant::now(), rate: 0.0, reading: Reading::default() }
    }

    /// Times one block and returns the host speed in steps per second.
    fn measure(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.kernel.block());
        let s = t.elapsed().as_secs_f64();
        self.reading.blocks_s += s;
        self.reading.blocks += 1;
        BLOCK_STEPS as f64 / s
    }

    /// Starts a stretch of work: measures the host speed and clears the
    /// reading.
    pub fn begin(&mut self) {
        self.reading = Reading::default();
        self.rate = self.measure();
        self.mark = Instant::now();
    }

    /// Ends the current stretch, measures the host speed, and starts the
    /// next stretch.
    pub fn tick(&mut self) {
        let wall = self.mark.elapsed().as_secs_f64();
        let rate = self.measure();
        self.reading.wall_s += wall;
        self.reading.ref_s += wall * (self.rate + rate) / 2.0 / STEPS_PER_REF_S;
        self.rate = rate;
        self.mark = Instant::now();
    }

    /// Ends the last stretch and returns what the work since
    /// [`RefClock::begin`] cost.
    pub fn end(&mut self) -> Reading {
        self.tick();
        self.reading
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_repeat_the_same_work_once_warm() {
        let mut k = Kernel::new();
        k.block();
        let warm = k.block();
        assert_eq!(k.block(), warm);
        assert!(warm < BLOCK_STEPS / 100, "{warm} hits");
    }

    #[test]
    fn books_every_stretch_and_excludes_blocks() {
        let mut c = RefClock::new();
        c.begin();
        c.tick();
        let r = c.end();
        assert_eq!(r.blocks, 3);
        assert!(r.wall_s >= 0.0 && r.ref_s >= 0.0 && r.blocks_s > 0.0);
        // Work of about 5 ms, booked between two blocks.
        c.begin();
        let t = Instant::now();
        while t.elapsed().as_secs_f64() < 0.005 {
            black_box(0);
        }
        let r = c.end();
        assert!(r.wall_s >= 0.005 && r.ref_s > 0.0, "{r:?}");
    }
}
