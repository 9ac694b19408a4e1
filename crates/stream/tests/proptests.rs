//! Property-based tests for the collection engine.

use proptest::prelude::*;
use trimgame_stream::board::{RangedBoard, RangedVenue, RoundRecord};
use trimgame_stream::compact::{Compactor, TierConfig};
use trimgame_stream::frame::Frame;
use trimgame_stream::trim::TrimScratch;

/// The obvious branching loop: the keep-mask and the kept values of an
/// upper cut at `threshold`, independent of the SIMD production path.
fn reference_cut(values: &[f64], threshold: f64) -> (Vec<bool>, Vec<f64>) {
    let mask = values.iter().map(|&v| v <= threshold).collect();
    let kept = values.iter().copied().filter(|&v| v <= threshold).collect();
    (mask, kept)
}

/// The highest round any shard reaches for the given gap sequences.
fn total_max(gaps: &[Vec<usize>]) -> usize {
    gaps.iter().map(|g| g.iter().sum()).max().unwrap_or(0)
}

fn records(n: usize) -> Vec<RoundRecord> {
    (1..=n)
        .map(|round| RoundRecord {
            round,
            threshold_percentile: 0.9,
            threshold_value: Some(1.0),
            received: 10,
            trimmed: round % 3,
            retained: trimgame_numerics::stats::OnlineStats::new(),
            quality: 1.0,
        })
        .collect()
}

proptest! {
    #[test]
    fn chunked_absolute_cut_matches_branching_reference(
        values in prop::collection::vec(-1e3_f64..1e3, 0..3_000),
        cut in -1.1e3_f64..1.1e3,
    ) {
        // The branch-light chunked pass (mask per fixed-size chunk, single
        // compaction) must be bit-identical to the obvious branching loop —
        // including across chunk boundaries (sizes beyond 1024 exercise
        // multi-chunk inputs).
        let (ref_mask, ref_kept) = reference_cut(&values, cut);
        let mut scratch = TrimScratch::new();
        let trimmed = scratch.cut(&values, cut);
        prop_assert_eq!(scratch.kept_mask(), ref_mask.as_slice());
        prop_assert_eq!(scratch.kept(), ref_kept.as_slice());
        prop_assert_eq!(trimmed, values.len() - ref_kept.len());
    }

    #[test]
    fn trim_partitions_the_batch(
        values in prop::collection::vec(-1e3_f64..1e3, 1..200),
        cut in -1e3_f64..1e3,
    ) {
        let mut scratch = TrimScratch::new();
        let trimmed = scratch.cut(&values, cut);
        prop_assert_eq!(scratch.kept().len() + trimmed, values.len());
        prop_assert_eq!(scratch.kept_mask().len(), values.len());
        let kept_from_mask: Vec<f64> = values
            .iter()
            .zip(scratch.kept_mask())
            .filter(|(_, &m)| m)
            .map(|(&v, _)| v)
            .collect();
        prop_assert_eq!(scratch.kept(), kept_from_mask.as_slice());
    }

    #[test]
    fn trim_never_keeps_values_above_threshold(
        values in prop::collection::vec(-1e3_f64..1e3, 1..200),
        cut in -1e3_f64..1e3,
    ) {
        let mut scratch = TrimScratch::new();
        let _ = scratch.cut(&values, cut);
        prop_assert!(scratch.kept().iter().all(|&v| v <= cut));
        prop_assert!(values
            .iter()
            .zip(scratch.kept_mask())
            .all(|(&v, &m)| m == (v <= cut)));
    }

    #[test]
    fn higher_percentile_trims_no_more(
        values in prop::collection::vec(-1e3_f64..1e3, 2..200),
        p1 in 0.0_f64..1.0,
        p2 in 0.0_f64..1.0,
    ) {
        // Cuts resolved at two percentiles of the batch: the higher one
        // never trims more.
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let at = |p| trimgame_numerics::quantile::percentile(&values, p, Default::default());
        let mut scratch = TrimScratch::new();
        let a = scratch.cut(&values, at(lo));
        let b = scratch.cut(&values, at(hi));
        prop_assert!(b <= a);
    }

    #[test]
    fn in_place_apply_agrees_with_reference_trim(
        values in prop::collection::vec(-1e6_f64..1e6, 1..300),
        p in 0.0_f64..=1.0,
    ) {
        // A cut at the batch's own sort-based percentile against the
        // branching reference: kept values and mask must be bit-identical
        // on arbitrary finite batches, ties at the cut included.
        let threshold = trimgame_numerics::quantile::percentile(&values, p, Default::default());
        let (ref_mask, ref_kept) = reference_cut(&values, threshold);
        let mut scratch = TrimScratch::new();
        let trimmed = scratch.cut(&values, threshold);
        prop_assert_eq!(scratch.kept(), ref_kept.as_slice());
        prop_assert_eq!(scratch.kept_mask(), ref_mask.as_slice());
        prop_assert_eq!(trimmed, values.len() - ref_kept.len());
    }

    #[test]
    fn scratch_reuse_is_stable_across_batches(
        a in prop::collection::vec(-1e3_f64..1e3, 1..120),
        b in prop::collection::vec(-1e3_f64..1e3, 1..120),
        cut in -1e3_f64..1e3,
    ) {
        // A scratch dirtied by one batch must give the same answer on the
        // next as a fresh scratch (no stale state in either buffer).
        let mut reused = TrimScratch::new();
        let _ = reused.cut(&a, cut);
        let trimmed = reused.cut(&b, cut);
        let mut fresh = TrimScratch::new();
        prop_assert_eq!(trimmed, fresh.cut(&b, cut));
        prop_assert_eq!(reused.kept(), fresh.kept());
        prop_assert_eq!(reused.kept_mask(), fresh.kept_mask());
    }

    #[test]
    fn board_preserves_order_and_counts(n in 1_usize..200) {
        // Past several CHUNK_CAP=64 seals inside one unbounded hot span.
        let board = RangedBoard::unbounded();
        for r in records(n) {
            board.post(r);
        }
        prop_assert_eq!(board.len(), n);
        let mut history = Vec::new();
        board.for_each_since_round(0, |r| history.push(r.round));
        prop_assert_eq!(history, (1..=n).collect::<Vec<_>>());
        prop_assert_eq!(board.last_round(), Some(n));
        prop_assert_eq!(board.round(n).map(|r| r.round), Some(n));
    }

    #[test]
    fn merged_view_under_concurrent_sharded_append_matches_sequential_reference(
        // Per-shard round-gap sequences: lengths past several CHUNK_CAP=64
        // seals and gaps up to 4, so cumulative rounds cross many span
        // boundaries at the small spans, and chunk seams inside one span
        // at the unbounded one (the engine board and the sweep's venue).
        // One writer thread per shard, appending concurrently — the
        // venue's contract.
        gaps in prop::collection::vec(
            prop::collection::vec(1_usize..=4, 0..160),
            1..=4,
        ),
        span_idx in 0_usize..4,
    ) {
        let span = [1, 7, 64, usize::MAX][span_idx];
        let venue = RangedVenue::new(gaps.len(), span);
        // The sequential reference: every (round, shard) pair, sorted.
        let mut reference: Vec<(usize, usize)> = Vec::new();
        for (shard, shard_gaps) in gaps.iter().enumerate() {
            let mut round = 0;
            for g in shard_gaps {
                round += g;
                reference.push((round, shard));
            }
        }
        reference.sort_unstable();
        std::thread::scope(|s| {
            for (shard, shard_gaps) in gaps.iter().enumerate() {
                let board = venue.collector(shard);
                s.spawn(move || {
                    let mut round = 0;
                    for g in shard_gaps {
                        round += g;
                        let mut rec = records(1).remove(0);
                        rec.round = round;
                        rec.trimmed = shard;
                        board.post(rec);
                    }
                });
            }
        });
        // Merged view ≡ sequential reference, ordered by (round, shard)
        // across both shard dimensions.
        let merged = venue.merged();
        prop_assert_eq!(merged.len(), reference.len());
        let order: Vec<(usize, usize)> = merged
            .records()
            .iter()
            .map(|(c, r)| (r.round, *c))
            .collect();
        prop_assert_eq!(&order, &reference);
        // Shard identity survives the merge.
        prop_assert!(merged.records().iter().all(|(c, r)| r.trimmed == *c));
        // Ranged incremental reads agree with the per-shard reference
        // suffix from bounds at, inside, and past range boundaries.
        for (shard, shard_gaps) in gaps.iter().enumerate() {
            let total: usize = shard_gaps.iter().sum();
            let board = venue.collector(shard);
            prop_assert_eq!(board.len(), shard_gaps.len());
            prop_assert_eq!(
                board.last_round(),
                (total > 0).then_some(total)
            );
            for from in [
                0,
                1,
                span,
                span.saturating_add(1),
                span.saturating_mul(2),
                total / 2,
                total,
            ] {
                let mut seen = Vec::new();
                board.for_each_since_round(from, |r| seen.push(r.round));
                let expect: Vec<usize> = reference
                    .iter()
                    .filter(|&&(r, c)| c == shard && r >= from.max(1))
                    .map(|&(r, _)| r)
                    .collect();
                prop_assert_eq!(&seen, &expect, "shard {} from {}", shard, from);
            }
        }
        // The bounded merged view is the reference suffix, and its len()
        // counts exactly the records it visits.
        for from in [1, span, total_max(&gaps) / 2, total_max(&gaps)] {
            let bounded = venue.merged_since_round(from);
            let order: Vec<(usize, usize)> = bounded
                .records()
                .iter()
                .map(|(c, r)| (r.round, *c))
                .collect();
            let expect: Vec<(usize, usize)> =
                reference.iter().copied().filter(|&(r, _)| r >= from).collect();
            prop_assert_eq!(bounded.len(), expect.len(), "from {}", from);
            prop_assert_eq!(&order, &expect, "from {}", from);
        }
    }

    #[test]
    fn for_each_since_agrees_with_history_across_chunk_seams(
        n in 1_usize..200,
        from_frac in 0.0_f64..=1.0,
    ) {
        let board = RangedBoard::unbounded();
        for r in records(n) {
            board.post(r);
        }
        let from = ((n as f64) * from_frac) as usize;
        let mut history = Vec::new();
        board.for_each_since_round(0, |r| history.push(r.round));
        let reference: Vec<usize> = history.into_iter().filter(|&r| r >= from).collect();
        let mut seen = Vec::new();
        board.for_each_since_round(from, |r| seen.push(r.round));
        prop_assert_eq!(&seen, &reference);
        // The venue merge enters the span at the same record.
        let merged: Vec<usize> = RangedVenue::from(board)
            .merged_since_round(from)
            .records()
            .iter()
            .map(|(_, r)| r.round)
            .collect();
        prop_assert_eq!(&merged, &reference);
    }
}

/// One generated round for the tiering properties: gap to the previous
/// round plus every payload field — absent thresholds, signed zeros,
/// infinities, and empty retained summaries all occur.
#[derive(Debug, Clone)]
struct RecordSpec {
    gap: usize,
    pct: f64,
    thr: Option<f64>,
    received: usize,
    trimmed: usize,
    vals: Vec<f64>,
    quality: f64,
}

fn arb_field() -> impl Strategy<Value = f64> {
    (0_usize..9, -1.0e6_f64..1.0e6).prop_map(|(sel, v)| match sel {
        0 => f64::INFINITY,
        1 => f64::NEG_INFINITY,
        2 => 0.0,
        3 => -0.0,
        _ => v,
    })
}

fn arb_specs(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<RecordSpec>> {
    let spec = (
        (1_usize..=3, arb_field(), (0_usize..4, arb_field())),
        (
            0_usize..5_000,
            0_usize..5_000,
            prop::collection::vec(-1.0e3_f64..1.0e3, 0..4),
            arb_field(),
        ),
    )
        .prop_map(
            |((gap, pct, (thr_sel, thr_val)), (received, trimmed, vals, quality))| RecordSpec {
                gap,
                pct,
                // thr_sel == 0 models the "no threshold resolved" round.
                thr: (thr_sel > 0).then_some(thr_val),
                received,
                trimmed,
                vals,
                quality,
            },
        );
    prop::collection::vec(spec, len)
}

fn build_records(specs: &[RecordSpec]) -> Vec<RoundRecord> {
    let mut round = 0;
    specs
        .iter()
        .map(|spec| {
            round += spec.gap;
            let mut retained = trimgame_numerics::stats::OnlineStats::new();
            retained.extend(&spec.vals);
            RoundRecord {
                round,
                threshold_percentile: spec.pct,
                threshold_value: spec.thr,
                received: spec.received,
                trimmed: spec.trimmed,
                retained,
                quality: spec.quality,
            }
        })
        .collect()
}

/// Bit-level identity of a record: every f64 compared by its bit pattern,
/// so `-0.0` vs `0.0` and infinity sentinels cannot silently alias.
fn fingerprint(r: &RoundRecord) -> [u64; 11] {
    let (n, mean, m2, min, max) = r.retained.raw_parts();
    [
        r.round as u64,
        r.threshold_percentile.to_bits(),
        u64::from(r.threshold_value.is_some()),
        r.threshold_value.unwrap_or(0.0).to_bits(),
        r.received as u64,
        r.trimmed as u64,
        n,
        mean.to_bits(),
        m2.to_bits(),
        min.to_bits(),
        max.to_bits(),
    ]
}

proptest! {
    #[test]
    fn frame_round_trips_arbitrary_records_bit_for_bit(
        specs in arb_specs(1..120),
    ) {
        let recs = build_records(&specs);
        let frame = Frame::encode(&recs);
        let decoded = frame.decode();
        prop_assert_eq!(decoded.len(), recs.len());
        for (a, b) in recs.iter().zip(&decoded) {
            prop_assert_eq!(fingerprint(a), fingerprint(b));
        }
        // The wire form round-trips too — spill and re-load is lossless.
        let wire = Frame::from_bytes(&frame.to_bytes()).expect("serialized frame");
        for (a, b) in recs.iter().zip(&wire.decode()) {
            prop_assert_eq!(fingerprint(a), fingerprint(b));
        }
    }

    #[test]
    fn mutated_wire_frames_error_instead_of_panicking(
        specs in arb_specs(1..60),
        // Fractions >= 1.0 mean "no truncation".
        cut in 0.0_f64..1.5,
        flips in prop::collection::vec((0.0_f64..1.0, 1_u8..=255), 0..4),
    ) {
        // A spill file that loses its tail or rots on disk must surface
        // as `Err`, never as a panic or as silently wrong records. Any
        // mutated TGF2 buffer (magic intact, anything after it changed)
        // is caught by the checksum.
        let bytes = Frame::encode(&build_records(&specs)).to_bytes();
        let mut mutated = bytes.clone();
        let keep = ((cut * mutated.len() as f64) as usize).min(mutated.len());
        mutated.truncate(keep);
        for &(pos, xor) in &flips {
            if mutated.is_empty() {
                break;
            }
            let idx = (pos * mutated.len() as f64) as usize;
            let idx = idx.min(mutated.len() - 1);
            mutated[idx] ^= xor;
        }
        // Reaching this point at all proves `from_bytes` did not panic.
        let parsed = Frame::from_bytes(&mutated);
        if mutated != bytes && mutated.starts_with(b"TGF2") {
            prop_assert!(parsed.is_err(), "corrupted TGF2 buffer parsed as Ok");
        }
        // Mutations that destroy the magic may alias the legacy TGF1
        // header; that path has no checksum but must still never panic —
        // `parsed` being a value (Ok or Err) is the property.
        drop(parsed);
    }

    #[test]
    fn tiered_reads_match_uncompacted_reference_across_seams(
        // Spans from tiny (many span seams) past CHUNK_CAP=64 (frames
        // crossing chunk seams inside one span).
        specs in arb_specs(1..150),
        span in 3_usize..=80,
    ) {
        let venue = RangedVenue::new(1, span);
        let board = venue.collector(0);
        let recs = build_records(&specs);
        for r in &recs {
            board.post(r.clone());
        }
        let mut reference = Vec::new();
        board.for_each_since_round(0, |r| reference.push(fingerprint(r)));
        prop_assert_eq!(reference.len(), recs.len());

        // Compact-only pass: sealed cold spans become frames, reads are
        // bit-identical.
        Compactor::new(TierConfig::default(), "prop-compact").run(&board);
        let mut compacted = Vec::new();
        board.for_each_since_round(0, |r| compacted.push(fingerprint(r)));
        prop_assert_eq!(&compacted, &reference);

        // Compact → evict → inflate: a zero budget with a spill directory
        // forces every eligible span to disk, so cold reads must re-inflate.
        let spill =
            std::env::temp_dir().join(format!("trimgame-proptest-{}", std::process::id()));
        let tiny = TierConfig {
            hot_tail_spans: 0,
            resident_budget: Some(0),
            spill_dir: Some(spill.clone()),
        };
        Compactor::new(tiny, "prop-evict").run(&board);
        prop_assert_eq!(board.resident_cold_bytes(0), 0);
        let last = recs.last().unwrap().round;
        for from in [0, 1, span, span + 1, 2 * span + 1, last / 2, last, last + 1] {
            let mut seen = Vec::new();
            board.for_each_since_round(from, |r| seen.push(fingerprint(r)));
            let expect: Vec<[u64; 11]> = recs
                .iter()
                .filter(|r| r.round >= from.max(1))
                .map(fingerprint)
                .collect();
            prop_assert_eq!(&seen, &expect, "from {}", from);
        }
        // Point lookups inflate spilled spans transparently.
        for r in recs.iter().step_by(7) {
            let got = board.round(r.round).expect("present round");
            prop_assert_eq!(fingerprint(&got), fingerprint(r));
        }
        prop_assert_eq!(board.round(last + 1), None);
        // The merged venue view sits on the same tiers and must agree.
        let merged: Vec<[u64; 11]> = venue
            .merged()
            .records()
            .iter()
            .map(|(_, r)| fingerprint(r))
            .collect();
        prop_assert_eq!(&merged, &reference);
        let _ = std::fs::remove_dir_all(&spill);
    }
}
