//! Seeded inputs: the random source, key choosers, the per-thread
//! operation streams, and the self-checking block contents.
//!
//! Everything here is a pure function of the workload seed, so one seed
//! always yields the same operation stream (and the same [`Digest`]).

/// `splitmix64`: a tiny, well-mixed 64-bit generator.
#[derive(Debug, Clone)]
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf-distributed ranks over `0..n` (Gray et al.'s rejection-free
/// method, as in YCSB): rank 0 is the hottest.
#[derive(Debug, Clone)]
pub(crate) struct Zipf {
    n: f64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub(crate) fn new(n: u64, theta: f64) -> Zipf {
        let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        let nf = n as f64;
        Zipf {
            n: nf,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / nf).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    pub(crate) fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = self.n * (self.eta * u - self.eta + 1.0).powf(self.alpha);
        (r as u64).min(self.n as u64 - 1)
    }
}

/// How a stream picks its keys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Keys {
    Uniform,
    Zipf(f64),
}

/// One client operation on data key `key`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Op {
    pub(crate) key: u32,
    pub(crate) write: bool,
}

/// A stream of `len` operations over `owned` keys: a share of
/// `read_permille`/1000 reads, keys drawn by `keys`. Zipf rank `r` is
/// `owned[r]`, so the caller's order decides which keys run hot.
pub(crate) fn stream(
    rng: &mut Rng,
    owned: &[u32],
    keys: Keys,
    read_permille: u64,
    len: usize,
) -> Vec<Op> {
    let zipf = match keys {
        Keys::Zipf(theta) => Some(Zipf::new(owned.len() as u64, theta)),
        Keys::Uniform => None,
    };
    (0..len)
        .map(|_| {
            let rank = match &zipf {
                Some(z) => z.sample(rng),
                None => rng.below(owned.len() as u64),
            };
            Op {
                key: owned[rank as usize],
                write: rng.below(1000) >= read_permille,
            }
        })
        .collect()
}

/// FNV-1a over everything that defines a run's inputs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Digest(u64);

impl Digest {
    pub(crate) fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub(crate) fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub(crate) fn ops(&mut self, ops: &[Op]) {
        for op in ops {
            self.bytes(&op.key.to_le_bytes());
            self.bytes(&[u8::from(op.write)]);
        }
    }

    pub(crate) fn value(self) -> u64 {
        self.0
    }
}

const HEADER: usize = 16;

/// Fill `buf` with the contents of version `version` of `key`: a 16-byte
/// header naming both, then words derived from them. Any block a read
/// returns can be checked against this without keeping copies.
pub(crate) fn fill(buf: &mut [u8], key: u32, version: u32) {
    buf[..8].copy_from_slice(&u64::from(key).to_le_bytes());
    buf[8..HEADER].copy_from_slice(&u64::from(version).to_le_bytes());
    let mut rng = Rng::new(body_seed(key, version));
    for chunk in buf[HEADER..].chunks_mut(8) {
        let w = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
}

/// The `(key, version)` a block claims to hold, if its body matches.
pub(crate) fn check(buf: &[u8]) -> Option<(u32, u32)> {
    let key = u32::try_from(u64::from_le_bytes(buf.get(..8)?.try_into().ok()?)).ok()?;
    let version = u32::try_from(u64::from_le_bytes(buf.get(8..HEADER)?.try_into().ok()?)).ok()?;
    let mut rng = Rng::new(body_seed(key, version));
    for chunk in buf[HEADER..].chunks(8) {
        let w = rng.next_u64().to_le_bytes();
        if chunk != &w[..chunk.len()] {
            return None;
        }
    }
    Some((key, version))
}

fn body_seed(key: u32, version: u32) -> u64 {
    mix((u64::from(key) << 32) ^ u64::from(version) ^ 0x5241_4444)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_round_trip_and_reject_damage() {
        let mut b = vec![0u8; 4096];
        fill(&mut b, 77, 3);
        assert_eq!(check(&b), Some((77, 3)));
        b[1000] ^= 1;
        assert_eq!(check(&b), None);
        assert_eq!(check(&[0u8; 4096]), None);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Rng::new(1);
        let hot = (0..10_000).filter(|_| z.sample(&mut rng) < 10).count();
        assert!(hot > 2_500, "top 1% of keys drew {hot} of 10000");
    }
}
