//! Tokenizer loading and a working greedy longest-match tokenizer
//! (loading-phase stage ❸, paper §2.1).
//!
//! Load time is dominated by parsing the vocabulary file, which is why
//! large-vocabulary models (Qwen1.5: 151 936 entries) spend visibly longer
//! in this stage (Fig. 2 / Fig. 8a: 0.21 s for Qwen1.5 4B). The tokenizer
//! itself is a real, deterministic byte-fallback greedy tokenizer: every
//! single byte is a token, plus generated multi-byte merges, so
//! `decode(encode(s)) == s` always holds.

use medusa_gpu::{CostModel, SimDuration};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The longest vocabulary piece in bytes; every piece packs into a
/// [`Piece`].
const MAX_PIECE: usize = 8;

/// Characters the generated multi-byte pieces draw from.
const CHARS: &[u8] = b"etaoinshrdlucmfwypvbgkjqxz ETAOIN0123456789.,;:-_'\"";

/// A vocabulary piece of 1..=[`MAX_PIECE`] bytes packed into one integer:
/// the bytes little-endian in the low 64 bits, the length above them. The
/// length is part of the key, so `"a\0"` and `"a"` never collide.
type Piece = u128;

fn pack(bytes: &[u8]) -> Piece {
    debug_assert!(bytes.len() <= MAX_PIECE);
    let mut word = [0u8; MAX_PIECE];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word) as u128 | (bytes.len() as u128) << 64
}

fn piece_len(piece: Piece) -> usize {
    (piece >> 64) as usize
}

/// Multiply-fold hasher for [`Piece`] keys. The vocabulary is generated,
/// not attacker-chosen, so it needs no SipHash-style flooding resistance.
#[derive(Default)]
struct PieceHasher(u64);

impl Hasher for PieceHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        // Folded multiply: both halves of the 128-bit product, so the low
        // bits the table indexes by depend on every key bit.
        let m = u128::from(self.0.rotate_left(5) ^ x) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (m as u64) ^ (m >> 64) as u64;
    }

    fn write_u128(&mut self, x: u128) {
        self.write_u64(x as u64);
        self.write_u64((x >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A loaded tokenizer.
#[derive(Debug, Clone)]
pub struct Tokenizer {
    vocab: Vec<Piece>,
    lookup: HashMap<Piece, u32, BuildHasherDefault<PieceHasher>>,
    max_piece: usize,
}

impl Tokenizer {
    /// Builds the tokenizer for a `vocab_size`-entry vocabulary and returns
    /// it together with the simulated load duration.
    ///
    /// The vocabulary is deterministic in `vocab_size`: 256 byte tokens plus
    /// generated multi-byte pieces over common ASCII.
    pub fn load(vocab_size: u32, cost: &CostModel) -> (Self, SimDuration) {
        (
            Self::build(vocab_size),
            Self::load_duration(vocab_size, cost),
        )
    }

    /// The simulated duration of [`Self::load`] for a `vocab_size`-entry
    /// vocabulary, without building it.
    pub fn load_duration(vocab_size: u32, cost: &CostModel) -> SimDuration {
        SimDuration::from_nanos(
            cost.tokenizer_fixed_ns + cost.tokenizer_per_entry_ns * vocab_size as u64,
        )
    }

    fn build(vocab_size: u32) -> Self {
        let target = vocab_size.max(256) as usize;
        let mut vocab: Vec<Piece> = Vec::with_capacity(target);
        let mut lookup = HashMap::with_capacity_and_hasher(target, Default::default());
        for b in 0..=u8::MAX {
            lookup.insert(pack(&[b]), vocab.len() as u32);
            vocab.push(pack(&[b]));
        }
        let mut rng = SmallRng::seed_from_u64(vocab_size as u64);
        let mut max_piece = 1;
        let mut bytes = [0u8; MAX_PIECE];
        while vocab.len() < target {
            let len = 2 + (rng.gen::<usize>() % 7);
            for b in &mut bytes[..len] {
                *b = CHARS[rng.gen::<usize>() % CHARS.len()];
            }
            let piece = pack(&bytes[..len]);
            if let Entry::Vacant(e) = lookup.entry(piece) {
                e.insert(vocab.len() as u32);
                vocab.push(piece);
                max_piece = max_piece.max(len);
            }
        }
        Tokenizer {
            vocab,
            lookup,
            max_piece,
        }
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> u32 {
        self.vocab.len() as u32
    }

    /// Encodes text into token ids by greedy longest match with byte
    /// fallback.
    pub fn encode(&self, text: &str) -> Vec<u32> {
        let bytes = text.as_bytes();
        let mut out = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            let end = (i + self.max_piece).min(bytes.len());
            let (id, next) = (i + 1..=end)
                .rev()
                .find_map(|j| self.lookup.get(&pack(&bytes[i..j])).map(|&id| (id, j)))
                .expect("single bytes always match");
            out.push(id);
            i = next;
        }
        out
    }

    /// Decodes token ids back into a byte string.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of vocabulary range.
    pub fn decode(&self, ids: &[u32]) -> Vec<u8> {
        let mut out = Vec::new();
        for &id in ids {
            let piece = self.vocab[id as usize];
            out.extend_from_slice(&(piece as u64).to_le_bytes()[..piece_len(piece)]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original vocabulary build, kept as the differential oracle:
    /// one `Vec<u8>` per piece, a SipHash dedup set and a separate lookup.
    struct Reference {
        vocab: Vec<Vec<u8>>,
        lookup: HashMap<Vec<u8>, u32>,
        max_piece: usize,
    }

    impl Reference {
        fn build(vocab_size: u32) -> Self {
            let mut vocab: Vec<Vec<u8>> = (0u16..256).map(|b| vec![b as u8]).collect();
            let mut rng = SmallRng::seed_from_u64(vocab_size as u64);
            let mut seen: HashMap<Vec<u8>, ()> = vocab.iter().cloned().map(|v| (v, ())).collect();
            while (vocab.len() as u32) < vocab_size.max(256) {
                let len = 2 + (rng.gen::<usize>() % 7);
                let piece: Vec<u8> = (0..len)
                    .map(|_| CHARS[rng.gen::<usize>() % CHARS.len()])
                    .collect();
                if seen.insert(piece.clone(), ()).is_none() {
                    vocab.push(piece);
                }
            }
            let lookup = vocab
                .iter()
                .enumerate()
                .map(|(i, v)| (v.clone(), i as u32))
                .collect();
            let max_piece = vocab.iter().map(Vec::len).max().unwrap_or(1);
            Reference {
                vocab,
                lookup,
                max_piece,
            }
        }

        fn encode(&self, text: &str) -> Vec<u32> {
            let bytes = text.as_bytes();
            let mut out = Vec::new();
            let mut i = 0;
            while i < bytes.len() {
                let mut matched = None;
                let end = (i + self.max_piece).min(bytes.len());
                for j in (i + 1..=end).rev() {
                    if let Some(&id) = self.lookup.get(&bytes[i..j]) {
                        matched = Some((id, j));
                        break;
                    }
                }
                let (id, next) = matched.expect("single bytes always match");
                out.push(id);
                i = next;
            }
            out
        }

        fn decode(&self, ids: &[u32]) -> Vec<u8> {
            ids.iter()
                .flat_map(|&id| self.vocab[id as usize].iter().copied())
                .collect()
        }
    }

    #[test]
    fn packed_build_matches_the_reference_build() {
        let corpus = [
            "the estate reestablishes the reinstatement, said O'Neil: 42 - 7.",
            "\0\x7f",
            "ünïcödé 😀 text",
            "aaaaaaaaaaaaaaaaaaaaaaaaa etaoinshrdlu etaoinshrdlu",
            "ab\0",
            "",
        ];
        for vocab_size in [10, 32_000, 64_000, 151_936] {
            let new = Tokenizer::build(vocab_size);
            let old = Reference::build(vocab_size);
            assert_eq!(new.vocab_size() as usize, old.vocab.len(), "{vocab_size}");
            assert_eq!(new.max_piece, old.max_piece, "{vocab_size}");
            for (id, piece) in old.vocab.iter().enumerate() {
                assert_eq!(&new.decode(&[id as u32]), piece, "{vocab_size}: id {id}");
            }
            for text in corpus {
                let ids = new.encode(text);
                assert_eq!(ids, old.encode(text), "{vocab_size}: {text:?}");
                assert_eq!(new.decode(&ids), old.decode(&ids), "{vocab_size}: {text:?}");
                assert_eq!(new.decode(&ids), text.as_bytes(), "{vocab_size}: {text:?}");
            }
        }
    }

    #[test]
    fn the_length_is_part_of_a_packed_piece() {
        assert_ne!(pack(b"a"), pack(b"a\0"));
        assert_ne!(pack(b""), pack(b"\0"));
        assert_eq!(piece_len(pack(b"abcdefgh")), 8);
        let t = Tokenizer::build(256);
        // "a\0" is no piece: it must encode as two byte tokens.
        assert_eq!(t.encode("a\0"), vec![u32::from(b'a'), 0]);
    }

    #[test]
    fn load_duration_is_the_load_span() {
        let cost = CostModel::default();
        for vocab_size in [10, 32_000, 151_936] {
            let (_, d) = Tokenizer::load(vocab_size, &cost);
            assert_eq!(d, Tokenizer::load_duration(vocab_size, &cost));
        }
    }

    #[test]
    fn roundtrip_is_lossless() {
        let (t, _) = Tokenizer::load(32_000, &CostModel::default());
        for s in [
            "hello world",
            "the rain in spain",
            "",
            "ünïcödé 😀 text",
            "aaaaaa",
        ] {
            let ids = t.encode(s);
            assert_eq!(t.decode(&ids), s.as_bytes(), "roundtrip failed for {s:?}");
        }
    }

    #[test]
    fn merges_compress_common_text() {
        let (t, _) = Tokenizer::load(151_936, &CostModel::default());
        let s = "the estate reestablishes the reinstatement";
        let ids = t.encode(s);
        assert!(ids.len() < s.len(), "multi-byte pieces should compress");
    }

    #[test]
    fn vocab_size_is_respected_and_deterministic() {
        let (a, _) = Tokenizer::load(50_000, &CostModel::default());
        let (b, _) = Tokenizer::load(50_000, &CostModel::default());
        assert_eq!(a.vocab_size(), 50_000);
        assert_eq!(a.encode("determinism"), b.encode("determinism"));
    }

    #[test]
    fn load_time_scales_with_vocab() {
        let cost = CostModel::default();
        let (_, small) = Tokenizer::load(32_000, &cost);
        let (_, large) = Tokenizer::load(151_936, &cost);
        assert!(large > small);
        // Paper Fig. 8a: ~0.21 s for Qwen1.5's 151936-entry vocab.
        let secs = large.as_secs_f64();
        assert!(
            (0.15..0.30).contains(&secs),
            "tokenizer load {secs}s out of band"
        );
    }

    #[test]
    fn tiny_vocab_still_covers_all_bytes() {
        let (t, _) = Tokenizer::load(10, &CostModel::default());
        assert_eq!(t.vocab_size(), 256);
        let ids = t.encode("\u{0}\u{7f}abc");
        assert_eq!(t.decode(&ids), "\u{0}\u{7f}abc".as_bytes());
    }
}
