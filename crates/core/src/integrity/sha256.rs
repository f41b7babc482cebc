//! A from-scratch SHA-256 implementation (FIPS 180-4).
//!
//! Used for image measurement, PCR extension, execution witnesses and
//! attestation MACs. The implementation favours clarity over speed; it is
//! not intended to be constant-time and must not be used to protect real
//! secrets — inside the simulator that is irrelevant.

/// Streaming SHA-256 hasher.
///
/// # Example
///
/// ```
/// use trustmeter_core::Sha256;
/// let digest = Sha256::digest(b"abc");
/// assert_eq!(
///     Sha256::to_hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Sha256 {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Convenience: hashes `data` in one call.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Hashes the concatenation of two 32-byte digests — the execution
    /// witness's chain-update shape, `H(chain || step)`. Bit-identical to
    /// `digest(&[a, b].concat())` but skips the streaming buffer: the
    /// message is exactly one data block, so the padding block is a
    /// compile-time constant (0x80 marker, 512-bit length).
    pub fn digest_pair(a: &[u8; 32], b: &[u8; 32]) -> [u8; 32] {
        const PAD: [u8; 64] = {
            let mut pad = [0u8; 64];
            pad[0] = 0x80;
            // 64 bytes = 512 bits, big-endian in the trailing length field.
            pad[62] = 0x02;
            pad
        };
        let mut state = H0;
        let mut block = [0u8; 64];
        block[..32].copy_from_slice(a);
        block[32..].copy_from_slice(b);
        Self::compress(&mut state, &block);
        Self::compress(&mut state, &PAD);
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Feeds more data into the hasher.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let need = 64 - self.buffer_len;
            let take = need.min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.process_block(&block);
                self.buffer_len = 0;
            }
        }
        while data.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&data[..64]);
            self.process_block(&block);
            data = &data[64..];
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffer_len = data.len();
        }
    }

    /// Finishes the computation and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian length — assembled as
        // whole blocks rather than byte-at-a-time.
        let mut block = [0u8; 64];
        block[..self.buffer_len].copy_from_slice(&self.buffer[..self.buffer_len]);
        block[self.buffer_len] = 0x80;
        if self.buffer_len < 56 {
            block[56..].copy_from_slice(&bit_len.to_be_bytes());
            self.process_block(&block);
        } else {
            self.process_block(&block);
            let mut last = [0u8; 64];
            last[56..].copy_from_slice(&bit_len.to_be_bytes());
            self.process_block(&last);
        }
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn process_block(&mut self, block: &[u8; 64]) {
        Self::compress(&mut self.state, block);
    }

    fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        #[cfg(target_arch = "x86_64")]
        if shani::try_compress(state, block) {
            return;
        }
        Self::compress_scalar(state, block);
    }

    fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[i * 4],
                block[i * 4 + 1],
                block[i * 4 + 2],
                block[i * 4 + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }

    /// Renders a digest as lowercase hex.
    pub fn to_hex(digest: &[u8; 32]) -> String {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut s = String::with_capacity(64);
        for b in digest {
            s.push(HEX[(b >> 4) as usize] as char);
            s.push(HEX[(b & 0x0f) as usize] as char);
        }
        s
    }

    /// Computes an HMAC-SHA256 MAC (RFC 2104 construction).
    pub fn hmac(key: &[u8], message: &[u8]) -> [u8; 32] {
        let mut key_block = [0u8; 64];
        if key.len() > 64 {
            let kd = Sha256::digest(key);
            key_block[..32].copy_from_slice(&kd);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        let ipad: Vec<u8> = key_block.iter().map(|b| b ^ 0x36).collect();
        inner.update(&ipad);
        inner.update(message);
        let inner_digest = inner.finalize();
        let mut outer = Sha256::new();
        let opad: Vec<u8> = key_block.iter().map(|b| b ^ 0x5c).collect();
        outer.update(&opad);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

/// Hardware-accelerated compression via the x86 SHA extensions. Produces
/// exactly the FIPS 180-4 state transition, so digests are bit-identical to
/// the scalar path; selection is a runtime CPU-feature check.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use super::K;
    use core::arch::x86_64::*;

    /// Whether the CPU supports the SHA extensions (and the SSE levels the
    /// kernel routine needs). `is_x86_feature_detected!` caches the CPUID
    /// probe, so this is an atomic load after the first call.
    #[inline]
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Compresses one block with the SHA extensions; returns `false` (doing
    /// nothing) on CPUs without them so the caller can fall back to scalar.
    #[inline]
    pub fn try_compress(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: `available()` verified the sha/ssse3/sse4.1 features at
        // runtime.
        unsafe { compress(state, block) };
        true
    }

    /// One 64-byte block, following Intel's canonical SHA-NI schedule.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        // Byte shuffle turning little-endian loads into big-endian words.
        let shuf = _mm_set_epi64x(
            0x0c0d_0e0f_0809_0a0bu64 as i64,
            0x0405_0607_0001_0203u64 as i64,
        );

        // Load (a,b,c,d) / (e,f,g,h) and rearrange into the (ABEF, CDGH)
        // lane layout sha256rnds2 expects.
        let abcd = _mm_loadu_si128(state.as_ptr() as *const __m128i);
        let efgh = _mm_loadu_si128(state.as_ptr().add(4) as *const __m128i);
        let tmp = _mm_shuffle_epi32(abcd, 0xB1);
        let efgh = _mm_shuffle_epi32(efgh, 0x1B);
        let mut abef = _mm_alignr_epi8(tmp, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, tmp, 0xF0);
        let abef_save = abef;
        let cdgh_save = cdgh;

        // W0..W15.
        let mut m = [
            _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr() as *const __m128i), shuf),
            _mm_shuffle_epi8(
                _mm_loadu_si128(block.as_ptr().add(16) as *const __m128i),
                shuf,
            ),
            _mm_shuffle_epi8(
                _mm_loadu_si128(block.as_ptr().add(32) as *const __m128i),
                shuf,
            ),
            _mm_shuffle_epi8(
                _mm_loadu_si128(block.as_ptr().add(48) as *const __m128i),
                shuf,
            ),
        ];

        for j in 0..16 {
            let w = if j < 4 {
                m[j]
            } else {
                // W[4j..4j+4] from the four preceding word groups.
                let t = _mm_sha256msg1_epu32(m[0], m[1]);
                let t = _mm_add_epi32(t, _mm_alignr_epi8(m[3], m[2], 4));
                let n = _mm_sha256msg2_epu32(t, m[3]);
                m[0] = m[1];
                m[1] = m[2];
                m[2] = m[3];
                m[3] = n;
                n
            };
            let k = _mm_loadu_si128(K.as_ptr().add(4 * j) as *const __m128i);
            let wk = _mm_add_epi32(w, k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            let wk_hi = _mm_shuffle_epi32(wk, 0x0E);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, wk_hi);
        }

        let abef = _mm_add_epi32(abef, abef_save);
        let cdgh = _mm_add_epi32(cdgh, cdgh_save);

        // Back to the (a,b,c,d) / (e,f,g,h) layout.
        let tmp = _mm_shuffle_epi32(abef, 0x1B);
        let cdgh = _mm_shuffle_epi32(cdgh, 0xB1);
        let abcd = _mm_blend_epi16(tmp, cdgh, 0xF0);
        let efgh = _mm_alignr_epi8(cdgh, tmp, 8);
        _mm_storeu_si128(state.as_mut_ptr() as *mut __m128i, abcd);
        _mm_storeu_si128(state.as_mut_ptr().add(4) as *mut __m128i, efgh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_string_vector() {
        assert_eq!(
            Sha256::to_hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            Sha256::to_hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            Sha256::to_hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn long_repeated_vector() {
        // One million 'a' characters (FIPS 180-4 test vector).
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            Sha256::to_hex(&Sha256::digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(10_000).collect();
        let oneshot = Sha256::digest(&data);
        let mut h = Sha256::new();
        for chunk in data.chunks(17) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), oneshot);
    }

    #[test]
    fn hmac_rfc4231_case1() {
        let key = [0x0b; 20];
        let mac = Sha256::hmac(&key, b"Hi There");
        assert_eq!(
            Sha256::to_hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn hmac_rfc4231_case2() {
        let mac = Sha256::hmac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            Sha256::to_hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn hmac_long_key_is_hashed() {
        let key = vec![0xaa; 131];
        let mac = Sha256::hmac(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            Sha256::to_hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn different_inputs_different_digests() {
        assert_ne!(Sha256::digest(b"hello"), Sha256::digest(b"hellp"));
    }

    /// splitmix64, for seeded test inputs.
    fn next_u64(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_bytes<const N: usize>(seed: &mut u64) -> [u8; N] {
        let mut out = [0u8; N];
        for chunk in out.chunks_mut(8) {
            let word = next_u64(seed).to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        out
    }

    /// SHA-256 of `data` through `compress_scalar` alone, padding included,
    /// whatever the CPU supports.
    fn scalar_digest(data: &[u8]) -> [u8; 32] {
        let mut message = data.to_vec();
        message.push(0x80);
        while message.len() % 64 != 56 {
            message.push(0);
        }
        message.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in message.chunks(64) {
            Sha256::compress_scalar(&mut state, block.try_into().expect("64-byte block"));
        }
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn scalar_fallback_matches_the_fips_vectors() {
        let million_a = vec![b'a'; 1_000_000];
        for (data, hex) in [
            (
                &b"abc"[..],
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                &b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"[..],
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &million_a[..],
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ] {
            assert_eq!(Sha256::to_hex(&scalar_digest(data)), hex);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sha_ni_compress_matches_scalar_compress() {
        if !shani::available() {
            return; // nothing to compare against on this CPU
        }
        let mut seed = 0x5A17;
        for _ in 0..1_000 {
            let words: [u8; 32] = random_bytes(&mut seed);
            let mut state = [0u32; 8];
            for (word, bytes) in state.iter_mut().zip(words.chunks(4)) {
                *word = u32::from_le_bytes(bytes.try_into().expect("four bytes"));
            }
            let block: [u8; 64] = random_bytes(&mut seed);
            let mut scalar = state;
            Sha256::compress_scalar(&mut scalar, &block);
            let mut accelerated = state;
            assert!(shani::try_compress(&mut accelerated, &block));
            assert_eq!(accelerated, scalar);
        }
    }

    #[test]
    fn digest_pair_matches_the_scalar_digest_of_the_concatenation() {
        let mut seed = 0x00D1_6E57;
        for _ in 0..1_000 {
            let a: [u8; 32] = random_bytes(&mut seed);
            let b: [u8; 32] = random_bytes(&mut seed);
            let expected = scalar_digest(&[a, b].concat());
            assert_eq!(Sha256::digest_pair(&a, &b), expected);
        }
    }

    #[test]
    fn digest_pair_matches_streaming_concatenation() {
        let a = Sha256::digest(b"left");
        let b = Sha256::digest(b"right");
        let mut h = Sha256::new();
        h.update(&a);
        h.update(&b);
        assert_eq!(Sha256::digest_pair(&a, &b), h.finalize());
    }
}
