//! Kill-at-arbitrary-point crash recovery.
//!
//! A collector process can die at any byte: mid-manifest-entry, mid-frame,
//! between the spill write and the journal append. The property tested
//! here is the whole durability contract in one line — *whatever byte the
//! crash lands on, recovery yields a clean prefix of the uninterrupted
//! history, never garbage and never a panic.*
//!
//! Setup: one uninterrupted tiered run (two shards, everything spilled and
//! journaled) acts as the reference. Each proptest case then simulates a
//! crash by copying the spill directory and truncating one file — manifest
//! or frame — at an arbitrary offset, and recovers from the damaged copy.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rand::Rng;
use trimgame_stream::board::{RangedVenue, RoundRecord};
use trimgame_stream::compact::{Compactor, TierConfig};
use trimgame_stream::recover::ManifestWriter;

const SHARDS: usize = 2;
const SPAN: usize = 8;
const ROUNDS: usize = 100;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "trimgame-killpoint-{}-{}-{}",
        label,
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn record(round: usize) -> RoundRecord {
    let mut retained = trimgame_numerics::stats::OnlineStats::new();
    retained.extend(&[round as f64, round as f64 * 0.5 - 3.0]);
    RoundRecord {
        round,
        threshold_percentile: 0.9,
        threshold_value: Some(round as f64 * 0.25),
        received: 10 + round % 7,
        trimmed: round % 3,
        retained,
        quality: 1.0 - (round as f64) * 1e-3,
    }
}

/// Bit-exact view of one shard's readable history.
fn shard_rows(venue: &RangedVenue, shard: usize) -> Vec<(usize, usize, usize, u64, u64)> {
    let mut rows = Vec::new();
    venue.collector(shard).for_each_since_round(0, |r| {
        rows.push((
            r.round,
            r.received,
            r.trimmed,
            r.threshold_value.unwrap_or(0.0).to_bits(),
            r.quality.to_bits(),
        ));
    });
    rows
}

/// Runs the uninterrupted tiered collect: posts `ROUNDS` rounds per shard,
/// spills every sealed span (budget 0), journals through the manifests.
fn uninterrupted_collect(dir: &Path) -> RangedVenue {
    let venue = RangedVenue::new(SHARDS, SPAN);
    for shard in 0..SHARDS {
        let manifest = ManifestWriter::create(
            dir,
            &format!("s{shard}"),
            shard as u64,
            SHARDS as u64,
            SPAN as u64,
        )
        .expect("create manifest");
        let compactor = Compactor::new(
            TierConfig {
                hot_tail_spans: 0,
                resident_budget: Some(0),
                spill_dir: Some(dir.to_path_buf()),
            },
            format!("s{shard}"),
        )
        .with_manifest(Arc::new(Mutex::new(manifest)));
        let board = venue.collector(shard);
        for round in 1..=ROUNDS {
            board.post(record(round));
        }
        // Several passes so the per-pass freeze cap reaches the fixpoint.
        for _ in 0..8 {
            compactor.run(&board);
        }
    }
    venue
}

fn copy_dir(src: &Path, dst: &Path) {
    for entry in std::fs::read_dir(src).expect("read spill dir") {
        let path = entry.expect("dir entry").path();
        if path.is_file() {
            std::fs::copy(&path, dst.join(path.file_name().expect("file name")))
                .expect("copy spill file");
        }
    }
}

#[test]
fn crash_at_every_byte_recovers_a_clean_prefix() {
    let src = fresh_dir("src");
    let _live = uninterrupted_collect(&src);

    // The reference: recovery of the *undamaged* directory.
    let (ref_venue, ref_report) = RangedVenue::recover_from_spill(&src).expect("clean recovery");
    let reference: Vec<_> = (0..SHARDS).map(|s| shard_rows(&ref_venue, s)).collect();
    assert!(ref_report.spans_recovered() > 0);
    assert_eq!(ref_report.spans_quarantined(), 0);
    assert_eq!(ref_report.rounds_lost(), 0);

    let mut files: Vec<PathBuf> = std::fs::read_dir(&src)
        .expect("read spill dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    files.sort();
    assert!(files.len() >= 4, "expected manifests and frames: {files:?}");

    let scratch = fresh_dir("case");
    let file_count = files.len();
    proptest::test_runner::run("crash_at_every_byte_recovers_a_clean_prefix", |rng| {
        let file_idx = rng.gen_range(0..file_count);
        let cut: f64 = rng.gen_range(0.0..1.0);
        {
            for entry in std::fs::read_dir(&scratch).expect("read scratch") {
                let _ = std::fs::remove_file(entry.expect("entry").path());
            }
            copy_dir(&src, &scratch);
            let victim = scratch.join(files[file_idx].file_name().expect("file name"));
            let full = std::fs::metadata(&victim).expect("victim metadata").len();
            let keep = (cut * full as f64) as u64;
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(&victim)
                .expect("open victim");
            file.set_len(keep).expect("truncate victim");
            drop(file);

            // Recovery must not panic, and whatever it adopts must be a
            // bit-exact prefix of the uninterrupted reference.
            match RangedVenue::recover_from_spill(&scratch) {
                Ok((venue, report)) => {
                    for (shard, full) in reference.iter().enumerate() {
                        let rows = shard_rows(&venue, shard);
                        prop_assert!(
                            rows.len() <= full.len() && rows == full[..rows.len()],
                            "shard {shard} is not a prefix after truncating {} to {keep}B",
                            victim.display()
                        );
                    }
                    prop_assert!(
                        report.spans_recovered() <= ref_report.spans_recovered(),
                        "damaged directory recovered more spans than the clean one"
                    );
                }
                // Only a manifest torn down to (or into) its Init entry can
                // make a shard unplaceable; with one victim file that can at
                // worst leave the other shard — never an error — unless the
                // whole directory is unreadable, which one truncation cannot
                // cause. NotFound is impossible here, so any error is a bug.
                Err(err) => prop_assert!(false, "recovery errored: {err}"),
            }
        }
        Ok(())
    });

    let _ = std::fs::remove_dir_all(&src);
    let _ = std::fs::remove_dir_all(&scratch);
}
