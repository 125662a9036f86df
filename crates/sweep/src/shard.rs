//! Campaign shards: deterministic scenario-range partitions and their
//! checksummed on-disk artifact records.
//!
//! A sharded campaign splits the grid's scenario index space `0..n`
//! into consecutive ranges of at most `shard_size` scenarios
//! ([`ShardPlan`]) and commits each completed range to its own file.
//! Because every scenario's seed derives from `(campaign_seed, index,
//! seed_slot)` alone, any range is independently computable — a crashed
//! campaign resumes by re-running exactly the ranges whose files are
//! missing or fail validation, and the merged results equal an
//! uninterrupted run bit for bit.
//!
//! ## Shard file format
//!
//! Text, newline-terminated lines:
//!
//! ```text
//! PSHARD v1
//! shard=3 start=96 end=128 seed=12648430 fingerprint=0123456789abcdef schema=3
//! <one record per scenario, in index order>
//! FOOTER records=32 body=8841 fnv1a=89abcdef01234567
//! ```
//!
//! The footer seals the file: `body` is the byte length of everything
//! before the footer line and `fnv1a` its FNV-1a 64 checksum, so
//! truncation, tail corruption and appended garbage are all detected.
//! The header binds the shard to its campaign: `fingerprint` is the
//! manifest checksum (grid shape + campaign seed + schema), so a shard
//! from a different campaign — or the right campaign at a different
//! grid — never validates.
//!
//! Records serialize every [`ScenarioResult`] field in declaration
//! order, comma-separated, with floats as the exact bits of the `f64`
//! (hex) — the round trip is bit-exact, which is what lets a resumed
//! campaign re-emit `sweep.json` byte-identically.

use std::ops::Range;

use crate::scenario::ScenarioResult;

/// Magic first line of every shard file; the version bumps if the
/// record field set changes.
pub const SHARD_MAGIC: &str = "PSHARD v1";

/// FNV-1a 64-bit: the workspace-standard integrity checksum (tiny,
/// dependency-free, good avalanche for corruption detection — not a
/// cryptographic MAC).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The deterministic shard → scenario-range mapping of one campaign:
/// consecutive ranges of `shard_size` scenarios, the last possibly
/// short. Pure arithmetic on `(n_scenarios, shard_size)`, so every
/// process of a multi-process campaign derives the identical plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Scenarios in the campaign (the grid's `len()`).
    pub n_scenarios: usize,
    /// Maximum scenarios per shard (≥ 1).
    pub shard_size: usize,
}

impl ShardPlan {
    /// A plan over `n_scenarios` in shards of at most `shard_size`.
    ///
    /// # Panics
    ///
    /// Panics if `shard_size` is zero (callers validate at the CLI).
    pub fn new(n_scenarios: usize, shard_size: usize) -> Self {
        assert!(shard_size >= 1, "shard size must be at least 1");
        ShardPlan { n_scenarios, shard_size }
    }

    /// Number of shards (`⌈n/size⌉`; zero for an empty campaign).
    pub fn n_shards(&self) -> usize {
        self.n_scenarios.div_ceil(self.shard_size)
    }

    /// The scenario-index range of shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= n_shards()`.
    pub fn range(&self, shard: usize) -> Range<usize> {
        assert!(shard < self.n_shards(), "shard {shard} out of range");
        let start = shard * self.shard_size;
        start..(start + self.shard_size).min(self.n_scenarios)
    }

    /// All shard ranges in shard order.
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.n_shards()).map(|s| self.range(s))
    }
}

/// The canonical shard file name (`shard-00042.psd`).
pub fn shard_file_name(shard: usize) -> String {
    format!("shard-{shard:05}.psd")
}

/// The identity a shard file must prove: its position in the plan and
/// the campaign it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHeader {
    /// Shard index within the plan.
    pub shard: usize,
    /// First scenario index (inclusive).
    pub start: usize,
    /// One past the last scenario index.
    pub end: usize,
    /// The campaign seed.
    pub campaign_seed: u64,
    /// The campaign manifest's checksum (binds grid shape + schema).
    pub fingerprint: u64,
}

/// Serializes one completed shard (results must be the header's range
/// in scenario-index order).
///
/// # Panics
///
/// Panics if the results don't match the header's range — the caller
/// (the checkpoint executor) constructs both, so a mismatch is a bug,
/// not an input error.
pub fn encode_shard(header: &ShardHeader, results: &[ScenarioResult]) -> String {
    assert_eq!(results.len(), header.end - header.start, "results must fill the shard range");
    let mut out = String::with_capacity(256 + results.len() * 256);
    out.push_str(SHARD_MAGIC);
    out.push('\n');
    out.push_str(&format!(
        "shard={} start={} end={} seed={} fingerprint={:016x} schema={}\n",
        header.shard,
        header.start,
        header.end,
        header.campaign_seed,
        header.fingerprint,
        crate::artifact::REPORT_SCHEMA_VERSION,
    ));
    for (k, r) in results.iter().enumerate() {
        assert_eq!(r.index, header.start + k, "results must be in scenario-index order");
        out.push_str(&encode_record(r));
        out.push('\n');
    }
    out.push_str(&format!(
        "FOOTER records={} body={} fnv1a={:016x}\n",
        results.len(),
        out.len(),
        fnv1a64(out.as_bytes())
    ));
    out
}

/// Validates and parses a shard file against the identity the campaign
/// expects. Any discrepancy — truncation, flipped bytes, appended
/// garbage, a foreign campaign's shard, a record out of range — returns
/// a description of what failed; the checkpoint layer quarantines the
/// file and re-runs the range. Total: no input panics, and only the
/// exact bytes [`encode_shard`] writes decode, so a decoded shard
/// re-encodes to its own file.
pub fn decode_shard(text: &str, expect: &ShardHeader) -> Result<Vec<ScenarioResult>, String> {
    // Locate the footer: the last line, starting exactly with "FOOTER ".
    let body_len = text.rfind("\nFOOTER ").map(|p| p + 1).ok_or("no footer (truncated?)")?;
    let (body, footer) = text.split_at(body_len);
    let footer = footer.strip_suffix('\n').ok_or("footer line not newline-terminated")?;
    if footer.contains('\n') {
        return Err("garbage after the footer line".into());
    }
    let footer_kv = parse_kv(footer.strip_prefix("FOOTER ").expect("rfind matched"))?;
    let records: usize = lookup(&footer_kv, "records")?;
    let declared_len: usize = lookup(&footer_kv, "body")?;
    if declared_len != body.len() {
        return Err(format!("body length {} != declared {declared_len}", body.len()));
    }
    let declared_sum = u64::from_str_radix(lookup_str(&footer_kv, "fnv1a")?, 16)
        .map_err(|_| "bad footer checksum field".to_string())?;
    let actual = fnv1a64(body.as_bytes());
    if actual != declared_sum {
        return Err(format!("checksum mismatch ({actual:016x} != {declared_sum:016x})"));
    }

    // The body is now integrity-checked; parse and verify identity.
    let mut lines = body.lines();
    if lines.next() != Some(SHARD_MAGIC) {
        return Err("bad magic".into());
    }
    let header_kv = parse_kv(lines.next().ok_or("missing header line")?)?;
    let schema: u32 = lookup(&header_kv, "schema")?;
    if schema != crate::artifact::REPORT_SCHEMA_VERSION {
        return Err(format!(
            "schema v{schema} != v{} this build writes",
            crate::artifact::REPORT_SCHEMA_VERSION
        ));
    }
    let got = ShardHeader {
        shard: lookup(&header_kv, "shard")?,
        start: lookup(&header_kv, "start")?,
        end: lookup(&header_kv, "end")?,
        campaign_seed: lookup(&header_kv, "seed")?,
        fingerprint: u64::from_str_radix(lookup_str(&header_kv, "fingerprint")?, 16)
            .map_err(|_| "bad fingerprint field".to_string())?,
    };
    if got != *expect {
        return Err(format!("header {got:?} does not match the campaign's {expect:?}"));
    }
    if records != expect.end - expect.start {
        return Err(format!(
            "footer declares {records} records, the range holds {}",
            expect.end - expect.start
        ));
    }
    let mut out = Vec::with_capacity(records);
    for (k, line) in lines.enumerate() {
        let r = decode_record(line).map_err(|e| format!("record {k}: {e}"))?;
        if r.index != expect.start + k {
            return Err(format!("record {k} has index {}, expected {}", r.index, expect.start + k));
        }
        out.push(r);
    }
    if out.len() != records {
        return Err(format!("{} records present, footer declares {records}", out.len()));
    }
    // The checksum seals the body but not its spelling (`007`, `+7`,
    // `\r\n`, upper-case hex all parse); only the encoder's own bytes
    // are accepted.
    if encode_shard(expect, &out) != text {
        return Err("not in canonical form".into());
    }
    Ok(out)
}

fn parse_kv(line: &str) -> Result<Vec<(&str, &str)>, String> {
    line.split_ascii_whitespace()
        .map(|tok| tok.split_once('=').ok_or_else(|| format!("bad token `{tok}`")))
        .collect()
}

fn lookup_str<'a>(kv: &[(&'a str, &'a str)], key: &str) -> Result<&'a str, String> {
    kv.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v).ok_or_else(|| format!("missing `{key}`"))
}

fn lookup<T: std::str::FromStr>(kv: &[(&str, &str)], key: &str) -> Result<T, String> {
    lookup_str(kv, key)?.parse().map_err(|_| format!("bad `{key}` field"))
}

// --- Record codec -------------------------------------------------------
//
// One comma-separated line per scenario, every `ScenarioResult` field in
// declaration order. Floats are the exact `to_bits()` hex (16 digits) —
// `sweep.json`'s shortest-round-trip formatting then reproduces the
// fresh run's bytes because the values themselves are bit-equal. Options
// encode `None` as the empty field; the latency histogram nests its
// pairs with `:` and `;` (never `,`).

fn push_f64(out: &mut String, v: f64) {
    out.push_str(&format!("{:016x}", v.to_bits()));
}

fn encode_record(r: &ScenarioResult) -> String {
    assert!(!r.id.contains([',', '\n']), "scenario id `{}` would corrupt the record framing", r.id);
    let mut f = String::with_capacity(256);
    let sep = |f: &mut String| f.push(',');
    f.push_str(&r.index.to_string());
    sep(&mut f);
    f.push_str(&r.id);
    sep(&mut f);
    f.push_str(&r.seed.to_string());
    sep(&mut f);
    if let Some(b) = r.leaked {
        f.push(if b { '1' } else { '0' });
    }
    sep(&mut f);
    if let Some(a) = r.anomalies {
        f.push_str(&a.to_string());
    }
    sep(&mut f);
    for (k, &(lat, count)) in r.latency_hist.iter().enumerate() {
        if k > 0 {
            f.push(';');
        }
        f.push_str(&format!("{lat}:{count}"));
    }
    sep(&mut f);
    f.push(if r.truncated { '1' } else { '0' });
    for v in [
        r.cycles,
        r.instructions,
        r.demand_accesses,
        r.demand_misses,
        r.demand_miss_latency,
        r.prefetch_issued,
        r.prefetch_fills,
        r.prefetch_useful,
        r.st_prefetches,
        r.at_prefetches,
        r.rp_prefetches,
    ] {
        sep(&mut f);
        f.push_str(&v.to_string());
    }
    sep(&mut f);
    push_f64(&mut f, r.ipc);
    for v in [
        r.prefetch_accuracy,
        r.mi_bits,
        r.mi_corrected,
        r.capacity_bits,
        r.ml_accuracy,
        r.guessing_entropy,
        r.mi_p_value,
        r.mi_null_q95,
        r.mi_ci_lo,
        r.mi_ci_hi,
    ] {
        sep(&mut f);
        if let Some(v) = v {
            push_f64(&mut f, v);
        }
    }
    for v in [r.secrets, r.trials] {
        sep(&mut f);
        if let Some(v) = v {
            f.push_str(&v.to_string());
        }
    }
    f
}

fn decode_record(line: &str) -> Result<ScenarioResult, String> {
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != 31 {
        return Err(format!("{} fields, expected 31", fields.len()));
    }
    let mut i = 0usize;
    let mut next = || {
        let f = fields[i];
        i += 1;
        f
    };
    fn num<T: std::str::FromStr>(f: &str, what: &str) -> Result<T, String> {
        f.parse().map_err(|_| format!("bad {what} `{f}`"))
    }
    fn opt_num<T: std::str::FromStr>(f: &str, what: &str) -> Result<Option<T>, String> {
        if f.is_empty() {
            Ok(None)
        } else {
            num(f, what).map(Some)
        }
    }
    fn bits(f: &str, what: &str) -> Result<f64, String> {
        u64::from_str_radix(f, 16).map(f64::from_bits).map_err(|_| format!("bad {what} bits `{f}`"))
    }
    fn opt_bits(f: &str, what: &str) -> Result<Option<f64>, String> {
        if f.is_empty() {
            Ok(None)
        } else {
            bits(f, what).map(Some)
        }
    }
    let index = num(next(), "index")?;
    let id = next().to_string();
    let seed = num(next(), "seed")?;
    let leaked = match next() {
        "" => None,
        "0" => Some(false),
        "1" => Some(true),
        other => return Err(format!("bad leaked flag `{other}`")),
    };
    let anomalies = opt_num(next(), "anomalies")?;
    let hist_field = next();
    let mut latency_hist = Vec::new();
    if !hist_field.is_empty() {
        for pair in hist_field.split(';') {
            let (lat, count) = pair.split_once(':').ok_or_else(|| format!("bad hist `{pair}`"))?;
            latency_hist.push((num(lat, "hist latency")?, num(count, "hist count")?));
        }
    }
    let truncated = match next() {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad truncated flag `{other}`")),
    };
    let cycles = num(next(), "cycles")?;
    let instructions = num(next(), "instructions")?;
    let demand_accesses = num(next(), "demand_accesses")?;
    let demand_misses = num(next(), "demand_misses")?;
    let demand_miss_latency = num(next(), "demand_miss_latency")?;
    let prefetch_issued = num(next(), "prefetch_issued")?;
    let prefetch_fills = num(next(), "prefetch_fills")?;
    let prefetch_useful = num(next(), "prefetch_useful")?;
    let st_prefetches = num(next(), "st_prefetches")?;
    let at_prefetches = num(next(), "at_prefetches")?;
    let rp_prefetches = num(next(), "rp_prefetches")?;
    let ipc = bits(next(), "ipc")?;
    let prefetch_accuracy = opt_bits(next(), "prefetch_accuracy")?;
    let mi_bits = opt_bits(next(), "mi_bits")?;
    let mi_corrected = opt_bits(next(), "mi_corrected")?;
    let capacity_bits = opt_bits(next(), "capacity_bits")?;
    let ml_accuracy = opt_bits(next(), "ml_accuracy")?;
    let guessing_entropy = opt_bits(next(), "guessing_entropy")?;
    let mi_p_value = opt_bits(next(), "mi_p_value")?;
    let mi_null_q95 = opt_bits(next(), "mi_null_q95")?;
    let mi_ci_lo = opt_bits(next(), "mi_ci_lo")?;
    let mi_ci_hi = opt_bits(next(), "mi_ci_hi")?;
    let secrets = opt_num(next(), "secrets")?;
    let trials = opt_num(next(), "trials")?;
    debug_assert_eq!(i, 31);
    Ok(ScenarioResult {
        index,
        id,
        seed,
        leaked,
        anomalies,
        latency_hist,
        truncated,
        cycles,
        instructions,
        ipc,
        demand_accesses,
        demand_misses,
        demand_miss_latency,
        prefetch_issued,
        prefetch_fills,
        prefetch_useful,
        prefetch_accuracy,
        st_prefetches,
        at_prefetches,
        rp_prefetches,
        mi_bits,
        mi_corrected,
        capacity_bits,
        ml_accuracy,
        guessing_entropy,
        secrets,
        trials,
        mi_p_value,
        mi_null_q95,
        mi_ci_lo,
        mi_ci_hi,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result(index: usize) -> ScenarioResult {
        ScenarioResult {
            index,
            id: format!("atk:fr/full32/none/paper/s{index}"),
            seed: 0xDEAD_BEEF ^ index as u64,
            leaked: Some(index.is_multiple_of(2)),
            anomalies: Some(3),
            latency_hist: vec![(4, 60), (200, 4)],
            truncated: false,
            cycles: 123_456,
            instructions: 98_765,
            ipc: 0.1234567890123,
            demand_accesses: 400,
            demand_misses: 31,
            demand_miss_latency: 6200,
            prefetch_issued: 17,
            prefetch_fills: 15,
            prefetch_useful: 9,
            prefetch_accuracy: Some(0.6),
            st_prefetches: 5,
            at_prefetches: 7,
            rp_prefetches: 5,
            mi_bits: None,
            mi_corrected: None,
            capacity_bits: None,
            ml_accuracy: None,
            guessing_entropy: None,
            secrets: None,
            trials: None,
            mi_p_value: None,
            mi_null_q95: None,
            mi_ci_lo: None,
            mi_ci_hi: None,
        }
    }

    fn leakage_result(index: usize) -> ScenarioResult {
        ScenarioResult {
            leaked: None,
            anomalies: None,
            latency_hist: Vec::new(),
            mi_bits: Some(2.9999999999999996),
            mi_corrected: Some(0.0),
            capacity_bits: Some(f64::NAN),
            ml_accuracy: Some(1.0),
            guessing_entropy: Some(f64::INFINITY),
            secrets: Some(8),
            trials: Some(4),
            mi_p_value: Some(0.004999999999999),
            mi_null_q95: Some(1e-300),
            mi_ci_lo: Some(-0.0),
            mi_ci_hi: Some(3.0),
            ..sample_result(index)
        }
    }

    #[test]
    fn plan_partitions_exactly() {
        let plan = ShardPlan::new(13, 4);
        assert_eq!(plan.n_shards(), 4);
        let ranges: Vec<_> = plan.ranges().collect();
        assert_eq!(ranges, vec![0..4, 4..8, 8..12, 12..13]);
        assert_eq!(ShardPlan::new(0, 4).n_shards(), 0);
        assert_eq!(ShardPlan::new(4, 4).n_shards(), 1);
        assert_eq!(ShardPlan::new(4, 100).range(0), 0..4);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_shard_size_panics() {
        ShardPlan::new(10, 0);
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        for r in [sample_result(0), sample_result(7), leakage_result(3)] {
            let line = encode_record(&r);
            let back = decode_record(&line).expect("decodes");
            // PartialEq fails on NaN fields; compare through the exact
            // bit patterns instead.
            assert_eq!(encode_record(&back), line);
            assert_eq!(back.index, r.index);
            assert_eq!(back.id, r.id);
            assert_eq!(
                back.capacity_bits.map(f64::to_bits),
                r.capacity_bits.map(f64::to_bits),
                "NaN/inf survive exactly"
            );
        }
    }

    #[test]
    fn shards_round_trip() {
        let header =
            ShardHeader { shard: 2, start: 8, end: 11, campaign_seed: 42, fingerprint: 0xABCD };
        let results: Vec<_> = (8..11).map(sample_result).collect();
        let text = encode_shard(&header, &results);
        let back = decode_shard(&text, &header).expect("valid shard");
        assert_eq!(back, results);
    }

    #[test]
    fn corruption_is_always_detected() {
        let header =
            ShardHeader { shard: 0, start: 0, end: 3, campaign_seed: 7, fingerprint: 0x1234 };
        let results: Vec<_> = (0..3).map(leakage_result).collect();
        let good = encode_shard(&header, &results);
        assert!(decode_shard(&good, &header).is_ok());

        // Truncation at every byte boundary must fail.
        for cut in 0..good.len() {
            assert!(
                decode_shard(&good[..cut], &header).is_err(),
                "truncation at {cut} must not validate"
            );
        }
        // A flipped byte anywhere must fail (checksum or framing).
        let mut bytes = good.clone().into_bytes();
        for pos in [0, 10, good.len() / 2, good.len() - 2] {
            let orig = bytes[pos];
            bytes[pos] = orig.wrapping_add(1);
            let corrupt = String::from_utf8_lossy(&bytes).into_owned();
            assert!(decode_shard(&corrupt, &header).is_err(), "flip at {pos} must not validate");
            bytes[pos] = orig;
        }
        // Appended garbage must fail.
        assert!(decode_shard(&format!("{good}junk\n"), &header).is_err());
        assert!(decode_shard(&format!("{good}\n"), &header).is_err());
        assert!(decode_shard("", &header).is_err());
    }

    #[test]
    fn foreign_shards_are_rejected() {
        let header =
            ShardHeader { shard: 1, start: 4, end: 6, campaign_seed: 9, fingerprint: 0xFEED };
        let text = encode_shard(&header, &(4..6).map(sample_result).collect::<Vec<_>>());
        for wrong in [
            ShardHeader { shard: 2, ..header },
            ShardHeader { start: 0, end: 2, ..header },
            ShardHeader { campaign_seed: 10, ..header },
            ShardHeader { fingerprint: 0xBEEF, ..header },
        ] {
            let err = decode_shard(&text, &wrong).unwrap_err();
            assert!(err.contains("does not match"), "{err}");
        }
    }

    #[test]
    fn file_names_are_stable() {
        assert_eq!(shard_file_name(0), "shard-00000.psd");
        assert_eq!(shard_file_name(42), "shard-00042.psd");
        assert_eq!(shard_file_name(123_456), "shard-123456.psd");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
