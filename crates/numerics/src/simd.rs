//! Explicit-SIMD mask-compact filter kernels for the trim hot path.
//!
//! One round of trimming is a *filter*: materialize the keep-mask of a
//! batch against an upper cut, then compact the kept values in input
//! order. `trimgame-stream`'s `TrimScratch::cut` runs it every round on
//! every engine, so it is the innermost loop of every sweep and every
//! equilibrium estimate.
//!
//! [`filter_f64`] picks the widest implementation the CPU supports at
//! runtime:
//!
//! * **AVX-512** (`x86_64`, runtime-detected `avx512f`): 8 `f64` lanes
//!   per iteration — one vector compare producing a bitmask, one
//!   table-driven 8-byte mask write, and one `compress` that left-packs
//!   the kept lanes in a single instruction.
//! * **AVX2** (`x86_64`, runtime-detected `avx2`): 4 `f64` lanes — vector
//!   compare + `movemask`, the same table-driven mask write, and a
//!   `permutevar8x32` left-pack driven by a per-mask shuffle table.
//! * **portable** everywhere else: a chunked mask-then-compact loop (a
//!   pure comparison pass the autovectorizer handles, then an
//!   unconditional-write compaction).
//!
//! **Contract** (driven per kernel in this module's tests, NaN and `±∞`
//! lanes included, and property-tested on tie-heavy batches in
//! `tests/proptests.rs`): on every input, NaN and `±∞` included,
//! every implementation produces bit-identical masks, bit-identical kept
//! values in input order, and identical counts — including ties exactly
//! at the cut, all-kept and all-trimmed batches. A value is kept exactly
//! when Rust's scalar `v <= hi` holds: the vector compare is IEEE ordered
//! (`_CMP_LE_OQ`), so a NaN lane is always trimmed and a NaN cut trims
//! everything.

// The workspace denies `unsafe_code`; vendor-intrinsic kernels are the
// one sanctioned exception. Every unsafe block is confined to this module
// behind safe, length-checked wrappers, and each kernel carries its
// bounds argument next to the code.
#![allow(unsafe_code)]

/// Chunk width of the portable branch-light filter pass: small enough
/// that a chunk's values and mask bytes stay in L1 between the two
/// sub-passes, large enough to amortize the loop bookkeeping.
const FILTER_CHUNK: usize = 1024;

/// The `u64` whose little-endian bytes are the eight `bool` mask bytes of
/// bitmask `m` (bit `j` → byte `j`). Lets a vector compare result become
/// one unaligned 8-byte store instead of eight byte stores.
static MASK_BYTES: [u64; 256] = mask_bytes();

const fn mask_bytes() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut m = 0;
    while m < 256 {
        let mut v = 0u64;
        let mut j = 0;
        while j < 8 {
            if (m >> j) & 1 == 1 {
                v |= 1 << (8 * j);
            }
            j += 1;
        }
        table[m] = v;
        m += 1;
    }
    table
}

/// The portable fallback: per fixed-size chunk, first materialize the
/// keep-mask (a pure comparison loop the compiler can vectorize — no
/// data-dependent branches), then compact the kept values with an
/// unconditional write and a mask-driven cursor bump
/// (`k += mask as usize`), so a mispredicted tail value never stalls the
/// pipeline.
fn filter_portable(values: &[f64], mask: &mut [bool], kept: &mut [f64], hi: f64) -> usize {
    let mut k = 0usize;
    for (chunk, mask_chunk) in values
        .chunks(FILTER_CHUNK)
        .zip(mask.chunks_mut(FILTER_CHUNK))
    {
        for (m, &v) in mask_chunk.iter_mut().zip(chunk) {
            *m = v <= hi;
        }
        for (&v, &m) in chunk.iter().zip(mask_chunk.iter()) {
            kept[k] = v;
            k += usize::from(m);
        }
    }
    k
}

/// Filters `values` into `kept` (input order), keeping every value with
/// `v <= hi`, and writes the keep-mask alongside. Returns the kept count.
///
/// # Panics
/// Panics unless `mask` and `kept` are exactly `values.len()` long (the
/// caller sizes them; the kernels rely on it for their block stores).
pub fn filter_f64(values: &[f64], mask: &mut [bool], kept: &mut [f64], hi: f64) -> usize {
    assert_eq!(mask.len(), values.len(), "mask must match the batch");
    assert_eq!(kept.len(), values.len(), "kept must match the batch");
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: avx512f verified at runtime; buffer lengths checked.
            return unsafe { avx512::filter_f64(values, mask, kept, hi) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: avx2 verified at runtime; buffer lengths checked.
            return unsafe { avx2::filter_f64(values, mask, kept, hi) };
        }
    }
    filter_portable(values, mask, kept, hi)
}

/// Which kernel [`filter_f64`] resolves to on this machine — surfaced so
/// benches and reports can label their numbers.
#[must_use]
pub fn active_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "portable"
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::MASK_BYTES;
    use std::arch::x86_64::{
        __m512d, _mm512_cmp_pd_mask, _mm512_loadu_pd, _mm512_maskz_compress_pd, _mm512_set1_pd,
        _mm512_storeu_pd, _CMP_LE_OQ,
    };

    /// 8-lane `f64` filter. Each full block: one vector compare into an
    /// 8-bit mask, one table-driven 8-byte mask store, one `compress`
    /// left-pack stored at the kept cursor. The full-width store at
    /// `kept[k..k + 8]` is in bounds because `k <= i <= n − 8` at every
    /// block head; lanes beyond the kept count are overwritten by later
    /// blocks or discarded by the caller's truncate.
    ///
    /// # Safety
    /// `avx512f` must be available; `mask` and `kept` must be exactly
    /// `values.len()` long (checked by the public wrapper).
    #[inline(never)]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn filter_f64(
        values: &[f64],
        mask: &mut [bool],
        kept: &mut [f64],
        hi: f64,
    ) -> usize {
        let n = values.len();
        let vp = values.as_ptr();
        let mp = mask.as_mut_ptr();
        let kp = kept.as_mut_ptr();
        let hi_v = _mm512_set1_pd(hi);
        let mut k = 0usize;
        let mut i = 0usize;
        while i + 8 <= n {
            let v: __m512d = _mm512_loadu_pd(vp.add(i));
            let m = _mm512_cmp_pd_mask::<_CMP_LE_OQ>(v, hi_v);
            (mp.add(i).cast::<u64>()).write_unaligned(MASK_BYTES[m as usize]);
            _mm512_storeu_pd(kp.add(k), _mm512_maskz_compress_pd(m, v));
            k += usize::from(m.count_ones() as u8);
            i += 8;
        }
        while i < n {
            let v = *vp.add(i);
            let keep = v <= hi;
            *mp.add(i) = keep;
            *kp.add(k) = v;
            k += usize::from(keep);
            i += 1;
        }
        k
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::MASK_BYTES;
    use std::arch::x86_64::{
        __m256i, _mm256_castpd_ps, _mm256_castps_pd, _mm256_cmp_pd, _mm256_loadu_pd,
        _mm256_loadu_si256, _mm256_movemask_pd, _mm256_permutevar8x32_ps, _mm256_set1_pd,
        _mm256_storeu_pd, _CMP_LE_OQ,
    };

    /// Left-pack shuffle table for the 4-lane `f64` kernel: for each
    /// 4-bit keep-mask, the 8 `i32` lane indices that move the kept
    /// `f64` lanes (as `f32` pairs) to the front, in input order.
    static PACK_PD: [[i32; 8]; 16] = pack_pd();

    const fn pack_pd() -> [[i32; 8]; 16] {
        let mut table = [[0i32; 8]; 16];
        let mut m = 0;
        while m < 16 {
            let mut out = 0;
            let mut j = 0;
            while j < 4 {
                if (m >> j) & 1 == 1 {
                    table[m][2 * out] = 2 * j;
                    table[m][2 * out + 1] = 2 * j + 1;
                    out += 1;
                }
                j += 1;
            }
            m += 1;
        }
        table
    }

    /// 4-lane `f64` filter: compare + `movemask`, table-driven 4-byte
    /// mask store, and a `permutevar8x32` left-pack (the `f64` lanes
    /// shuffled as `f32` pairs). Full-width stores at the kept cursor are
    /// in bounds for the same `k <= i` reason as the AVX-512 kernel.
    ///
    /// # Safety
    /// `avx2` must be available; `mask` and `kept` must be exactly
    /// `values.len()` long (checked by the public wrapper).
    #[inline(never)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn filter_f64(
        values: &[f64],
        mask: &mut [bool],
        kept: &mut [f64],
        hi: f64,
    ) -> usize {
        let n = values.len();
        let vp = values.as_ptr();
        let mp = mask.as_mut_ptr();
        let kp = kept.as_mut_ptr();
        let hi_v = _mm256_set1_pd(hi);
        let mut k = 0usize;
        let mut i = 0usize;
        while i + 4 <= n {
            let v = _mm256_loadu_pd(vp.add(i));
            let m = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(v, hi_v)) as usize;
            (mp.add(i).cast::<u32>()).write_unaligned(MASK_BYTES[m] as u32);
            let idx = _mm256_loadu_si256(PACK_PD[m].as_ptr().cast::<__m256i>());
            let packed = _mm256_permutevar8x32_ps(_mm256_castpd_ps(v), idx);
            _mm256_storeu_pd(kp.add(k), _mm256_castps_pd(packed));
            k += m.count_ones() as usize;
            i += 4;
        }
        while i < n {
            let v = *vp.add(i);
            let keep = v <= hi;
            *mp.add(i) = keep;
            *kp.add(k) = v;
            k += usize::from(keep);
            i += 1;
        }
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar reference shared by the unit checks (the proptests compare
    /// against an independent implementation in `tests/proptests.rs`).
    fn reference_f64(values: &[f64], hi: f64) -> (Vec<bool>, Vec<f64>) {
        (
            values.iter().map(|&v| v <= hi).collect(),
            values.iter().copied().filter(|&v| v <= hi).collect(),
        )
    }

    /// Compares kept values by bits, so NaN payloads and signed zeros
    /// count.
    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn simd_filter_matches_reference_on_edge_shapes() {
        let ramp: Vec<f64> = (0..1003).map(f64::from).collect();
        for (values, hi) in [
            (&ramp[..], 500.5),
            (&ramp[..], 500.0),  // tie exactly at the threshold
            (&ramp[..], -1.0),   // all trimmed
            (&ramp[..], 2000.0), // none trimmed
            (&[][..], 0.0),
            (&[1.0][..], 1.0),
            (&[1.0, 2.0, 3.0][..], 2.0), // sub-vector tail only
        ] {
            let mut mask = vec![false; values.len()];
            let mut kept = vec![0.0; values.len()];
            let k = filter_f64(values, &mut mask, &mut kept, hi);
            let (ref_mask, ref_kept) = reference_f64(values, hi);
            assert_eq!(mask, ref_mask, "mask mismatch (hi {hi})");
            assert_eq!(&kept[..k], ref_kept.as_slice(), "kept mismatch (hi {hi})");
        }
    }

    #[test]
    fn active_kernel_names_a_real_kernel() {
        assert!(["avx512", "avx2", "portable"].contains(&active_kernel()));
    }

    /// Shapes that stress every kernel edge: vector-width remainders,
    /// ties at the cut, all-kept, all-dropped, empty, and NaN / `±∞`
    /// lanes at every offset mod 8 (so each lands in every lane of an
    /// AVX-512 block, every lane of an AVX2 block and the scalar tail) —
    /// cut at finite, infinite and NaN thresholds.
    fn kernel_shapes() -> Vec<(Vec<f64>, f64)> {
        let ramp: Vec<f64> = (0..1003).map(f64::from).collect();
        let mut shapes = vec![
            (ramp.clone(), 500.0),
            (ramp.clone(), -1.0),
            (ramp.clone(), 2000.0),
            (vec![], 0.0),
            (vec![1.0, 2.0, 3.0, 4.0, 5.0], 4.0),
        ];
        for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for offset in 0..8 {
                // 37 values: four full AVX-512 blocks plus a 5-value tail.
                let mut values: Vec<f64> = (0..37).map(|i| f64::from(i) - 18.0).collect();
                for slot in values.iter_mut().skip(offset).step_by(8) {
                    *slot = special;
                }
                for hi in [0.5, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
                    shapes.push((values.clone(), hi));
                }
            }
        }
        shapes
    }

    type FilterFn = Box<dyn Fn(&[f64], &mut [bool], &mut [f64], f64) -> usize>;

    /// The public dispatch only ever reaches the widest kernel the CPU
    /// has, so each backend module is also driven *directly* against the
    /// scalar `v <= hi` here — the AVX2 left-pack must stay correct even
    /// when CI happens to run on AVX-512 hardware (and vice versa the
    /// portable kernel everywhere).
    #[test]
    fn every_compiled_kernel_matches_the_reference_directly() {
        let mut runners: Vec<(&str, FilterFn)> = vec![("portable", Box::new(filter_portable))];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                runners.push((
                    "avx2",
                    // SAFETY: avx2 verified just above; lengths match.
                    Box::new(|v, m, k, hi| unsafe { avx2::filter_f64(v, m, k, hi) }),
                ));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                runners.push((
                    "avx512",
                    // SAFETY: avx512f verified just above; lengths match.
                    Box::new(|v, m, k, hi| unsafe { avx512::filter_f64(v, m, k, hi) }),
                ));
            }
        }
        for (values, hi) in kernel_shapes() {
            let n = values.len();
            let (ref_mask, ref_kept) = reference_f64(&values, hi);
            for (name, filter) in &runners {
                let mut mask = vec![false; n];
                let mut kept = vec![0.0; n];
                let k = filter(&values, &mut mask, &mut kept, hi);
                assert_eq!(mask, ref_mask, "{name} mask (hi {hi}, {values:?})");
                assert_eq!(
                    bits(&kept[..k]),
                    bits(&ref_kept),
                    "{name} kept (hi {hi}, {values:?})"
                );
            }
        }
    }
}
