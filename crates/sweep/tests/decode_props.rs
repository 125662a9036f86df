//! Totality of the campaign decoders: every byte string a crash, a torn
//! write or a stray editor can leave in a campaign directory decodes to
//! `Err` or to a value that re-encodes to exactly those bytes — never a
//! panic, and never a second spelling of a valid file.
//!
//! Inputs start from valid encodings (two shards, two manifests, two
//! leases) and are mutated four ways: truncation, bit flips, a splice
//! of two valid encodings, and random bytes. Half of the cases are then
//! *resealed* — given a checksum that matches the mutated body — so the
//! field parsers behind the checksum are exercised too, not just the
//! checksum itself.

use std::sync::OnceLock;

use proptest::prelude::*;

use prefender_stats::SplitMix64;
use prefender_sweep::{
    decode_shard, encode_shard, fnv1a64, run_sweep, LeaseInfo, Manifest, ShardHeader, SweepGrid,
    SweepOptions,
};

/// Valid encodings of each codec, with the identity each shard decodes
/// against.
struct Corpus {
    shards: Vec<(ShardHeader, String)>,
    manifests: Vec<String>,
    leases: Vec<String>,
}

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut grid = SweepGrid::security_quick();
        grid.seeds = 2;
        let report = run_sweep(&grid, &SweepOptions { threads: 1, campaign_seed: 7 });
        let n = report.results.len();
        let split = n / 2;
        let shards = [(0, 0..split), (1, split..n)]
            .into_iter()
            .map(|(shard, range)| {
                let header = ShardHeader {
                    shard,
                    start: range.start,
                    end: range.end,
                    campaign_seed: 7,
                    fingerprint: 0x0123_4567_89ab_cdef,
                };
                (header, encode_shard(&header, &report.results[range]))
            })
            .collect();
        let mut other = SweepGrid::security_quick();
        other.seeds = 5;
        other.leakage_trials = 3;
        let manifests = [(7, 2, grid), (0xC0FFEE, 4, other)]
            .into_iter()
            .map(|(campaign_seed, shard_size, grid)| {
                Manifest { campaign_seed, shard_size, grid }.encode()
            })
            .collect();
        let leases = [(4242, 0xDEAD_BEEF, 3), (1, 0x1, 12_345)]
            .into_iter()
            .map(|(pid, token, shard)| {
                LeaseInfo {
                    pid,
                    token,
                    fingerprint: 0xF00D,
                    shard,
                    heartbeat_ms: 1_700_000_000_000,
                }
                .encode()
            })
            .collect();
        Corpus { shards, manifests, leases }
    })
}

/// One mutation of `a` (with `b` as the splice partner), as text the
/// way `fs::read_to_string` would hand it over (invalid UTF-8 replaced).
fn mutate(a: &str, b: &str, how: usize, rng: &mut SplitMix64) -> String {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut below = |n: usize| rng.below(n as u64 + 1) as usize;
    let bytes: Vec<u8> = match how {
        0 => a[..below(a.len())].to_vec(),
        1 => {
            let mut out = a.to_vec();
            for _ in 0..1 + below(2) {
                let bit = below(out.len() * 8 - 1);
                out[bit / 8] ^= 1 << (bit % 8);
            }
            out
        }
        2 => {
            let (i, j) = (below(a.len()), below(b.len()));
            [&a[..i], &b[j..]].concat()
        }
        _ => (0..below(512)).map(|_| below(255) as u8).collect(),
    };
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Replaces (or appends) the `check=` seal of a manifest/lease text so
/// its checksum matches whatever body the mutation left.
fn reseal_checked(text: &str) -> String {
    let body = text.rfind("\ncheck=").map_or(text, |p| &text[..p + 1]);
    format!("{body}check={:016x}\n", fnv1a64(body.as_bytes()))
}

/// Replaces (or appends) a shard's footer so its record count, length
/// and checksum all match the mutated body.
fn reseal_shard(text: &str, header: &ShardHeader) -> String {
    let body = text.rfind("\nFOOTER ").map_or(text, |p| &text[..p + 1]);
    format!(
        "{body}FOOTER records={} body={} fnv1a={:016x}\n",
        header.end - header.start,
        body.len(),
        fnv1a64(body.as_bytes())
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    #[test]
    fn shard_decoding_is_total_and_canonical(
        seed in 0u64..u64::MAX,
        how in 0usize..4,
        pick in 0usize..2,
        reseal in 0usize..2,
    ) {
        let shards = &corpus().shards;
        let (header, a) = &shards[pick];
        let mut rng = SplitMix64::new(seed);
        let mut text = mutate(a, &shards[1 - pick].1, how, &mut rng);
        if reseal == 1 {
            text = reseal_shard(&text, header);
        }
        if let Ok(results) = decode_shard(&text, header) {
            prop_assert_eq!(encode_shard(header, &results), text);
        }
    }

    #[test]
    fn manifest_decoding_is_total_and_canonical(
        seed in 0u64..u64::MAX,
        how in 0usize..4,
        pick in 0usize..2,
        reseal in 0usize..2,
    ) {
        let manifests = &corpus().manifests;
        let mut rng = SplitMix64::new(seed);
        let mut text = mutate(&manifests[pick], &manifests[1 - pick], how, &mut rng);
        if reseal == 1 {
            text = reseal_checked(&text);
        }
        if let Ok(manifest) = Manifest::decode(&text) {
            prop_assert_eq!(manifest.encode(), text);
        }
    }

    #[test]
    fn lease_decoding_is_total_and_canonical(
        seed in 0u64..u64::MAX,
        how in 0usize..4,
        pick in 0usize..2,
        reseal in 0usize..2,
    ) {
        let leases = &corpus().leases;
        let mut rng = SplitMix64::new(seed);
        let mut text = mutate(&leases[pick], &leases[1 - pick], how, &mut rng);
        if reseal == 1 {
            text = reseal_checked(&text);
        }
        if let Ok(info) = LeaseInfo::decode(&text) {
            prop_assert_eq!(info.encode(), text);
        }
    }
}

/// The spellings the checksum cannot see: each parses to the same
/// value, so only the canonical-form check rejects them.
#[test]
fn resealed_respellings_are_rejected() {
    let c = corpus();
    let lease = &c.leases[0];
    for (from, to) in [("pid=4242", "pid=+4242"), ("pid=4242", "pid=04242"), ("token=", "token=0")]
    {
        let respelled = reseal_checked(&lease.replacen(from, to, 1));
        assert!(LeaseInfo::decode(&respelled).is_err(), "{respelled}");
    }
    let check_upper = {
        let p = lease.rfind("check=").unwrap();
        format!("{}{}", &lease[..p], lease[p..].to_uppercase().replace("CHECK=", "check="))
    };
    if check_upper != *lease {
        assert!(LeaseInfo::decode(&check_upper).is_err(), "{check_upper}");
    }
    let manifest = &c.manifests[0];
    let crlf = reseal_checked(&manifest.replacen("\nseed=", "\r\nseed=", 1));
    assert!(Manifest::decode(&crlf).is_err(), "{crlf}");
    let (header, shard) = &c.shards[0];
    let padded = reseal_shard(&shard.replacen("seed=7", "seed=07", 1), header);
    assert!(decode_shard(&padded, header).is_err(), "{padded}");
}
