//! Sticky sessions: cookie tokens and the sharded session table.
//!
//! When a proxy uses cookie-based routing with sticky sessions, it sets a
//! UUID cookie on the client's first request and remembers which version the
//! client was bucketed into; subsequent requests carrying the cookie are
//! routed to the same version for the remainder of the state.
//!
//! The binding table is the proxy's hottest shared structure: every routed
//! request under a sticky split performs a lookup or a bind, and a proxy
//! fronting a large service holds millions of live bindings. The table is
//! therefore **sharded by token hash** — `N` independently locked
//! ([`parking_lot::Mutex`]) shards, each a hash table over its slice of the
//! key space. Shard assignment is a pure function of the token (a splitmix
//! finalizer over [`SessionToken::raw`], see [`bifrost_core::hash`]), so a
//! token's bindings always live in exactly one shard. A routing call
//! applies the bindings it makes grouped by shard, one short lock per
//! touched shard, and concurrent callers contend only when they touch the
//! same shard.
//!
//! Inside a shard a bind or lookup is one hash-table probe, and a
//! configuration push clears a shard by resetting its control bytes rather
//! than freeing one node per binding. The table hashes all 128 bits of the
//! token with a **keyed** folded multiply whose two 64-bit keys are drawn
//! at random once per store. The key matters because the proxy also binds
//! tokens that clients send in cookies: with a fixed hash a client could
//! choose cookies that all land in one probe chain and turn every bind
//! into a linear scan (Crosby & Wallach, "Denial of Service via Algorithmic
//! Complexity Attacks", USENIX Security 2003). The shard hash cannot serve
//! here either, since within one shard its residue modulo the shard count
//! is constant. Nothing the store reports depends on the key: every
//! aggregate is a count, and the table is never iterated in order.

use bifrost_core::hash;
use bifrost_core::ids::VersionId;
use parking_lot::{Mutex, MutexGuard};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};

/// An RFC-4122-shaped session token carried in the proxy's cookie.
///
/// Tokens are generated deterministically from a per-proxy counter and seed
/// (a splitmix64 step formatted as a version-4 UUID), which keeps simulated
/// experiments reproducible while preserving the uniqueness property the
/// proxy relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SessionToken(u128);

impl SessionToken {
    /// Creates a token from its raw 128-bit value.
    pub const fn from_raw(raw: u128) -> Self {
        Self(raw)
    }

    /// The raw 128-bit value.
    pub const fn raw(self) -> u128 {
        self.0
    }

    /// A uniform draw in `[0, 1)` derived from the token, used to bucket the
    /// session into a traffic split consistently across requests.
    pub fn bucket_draw(self) -> f64 {
        // Use the low 53 bits for a uniformly distributed double. The top of
        // the token is unusable: [`TokenGenerator::next_token`] stamps the
        // RFC 4122 version nibble (bits 76–79) and variant bits (62–63) to
        // constants, and a draw that includes them is biased.
        let bits = (self.0 as u64) & ((1u64 << 53) - 1);
        bits as f64 / (1u64 << 53) as f64
    }

    /// The token's shard-assignment hash: a full-avalanche mix of the raw
    /// 128 bits. Decorrelated from [`Self::bucket_draw`] (which reads the
    /// low bits unmixed), so shard residency carries no information about
    /// the version a split buckets the session into.
    pub const fn shard_hash(self) -> u64 {
        hash::fold128(self.0)
    }
}

impl fmt::Display for SessionToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render the raw bytes verbatim in the 8-4-4-4-12 grouping so that the
        // cookie value parses back to exactly this token. Generated tokens
        // already carry RFC 4122 version/variant bits (see
        // [`TokenGenerator::next_token`]).
        let bytes = self.0.to_be_bytes();
        for (i, byte) in bytes.iter().enumerate() {
            if matches!(i, 4 | 6 | 8 | 10) {
                write!(f, "-")?;
            }
            write!(f, "{byte:02x}")?;
        }
        Ok(())
    }
}

/// Deterministic token generator (one per proxy).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenGenerator {
    state: u64,
}

impl TokenGenerator {
    /// Creates a generator from a seed.
    pub fn seeded(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Produces the next token, stamped with RFC 4122 version-4 and variant
    /// bits so the rendered cookie is a well-formed random UUID.
    pub fn next_token(&mut self) -> SessionToken {
        let a = hash::splitmix64(&mut self.state);
        let b = hash::splitmix64(&mut self.state);
        let mut bytes = (((a as u128) << 64) | b as u128).to_be_bytes();
        bytes[6] = (bytes[6] & 0x0f) | 0x40;
        bytes[8] = (bytes[8] & 0x3f) | 0x80;
        SessionToken(u128::from_be_bytes(bytes))
    }
}

/// The default shard count of a proxy's sticky-session table.
///
/// Eight shards stripe lock contention well below typical core counts,
/// while staying cheap for tiny stores.
pub const DEFAULT_SESSION_SHARDS: usize = 8;

/// The maximum shard count of a proxy's sticky-session table. Shards
/// beyond any plausible core count only add fixed per-shard cost, so the
/// store clamps requested counts to this bound.
pub const MAX_SESSION_SHARDS: usize = 1_024;

/// A token as the table stores it: four `u32` words, so that a table entry
/// (key plus a `u32` palette index) is 20 B with 4-byte alignment, where a
/// `u128` key would pad it to 32 B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TokenKey([u32; 4]);

impl From<SessionToken> for TokenKey {
    fn from(token: SessionToken) -> Self {
        Self([0, 32, 64, 96].map(|shift| (token.raw() >> shift) as u32))
    }
}

impl Hash for TokenKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let [a, b, c, d] = self.0.map(u128::from);
        state.write_u128(a | b << 32 | c << 64 | d << 96);
    }
}

/// The table's hash: two secret 64-bit keys folded into the token by one
/// 64 × 64 → 128-bit multiply (foldhash's 16-byte path). The keys stay out
/// of every `Debug` rendering.
#[derive(Clone, Copy)]
struct TokenHashKeys {
    k0: u64,
    k1: u64,
}

impl Default for TokenHashKeys {
    /// Draws fresh keys from the standard library's per-process random
    /// source.
    fn default() -> Self {
        let random = RandomState::new();
        Self {
            k0: random.hash_one(1u64),
            k1: random.hash_one(2u64),
        }
    }
}

impl BuildHasher for TokenHashKeys {
    type Hasher = TokenHasher;

    fn build_hasher(&self) -> TokenHasher {
        TokenHasher {
            keys: *self,
            hash: 0,
        }
    }
}

struct TokenHasher {
    keys: TokenHashKeys,
    hash: u64,
}

impl Hasher for TokenHasher {
    fn write_u128(&mut self, raw: u128) {
        let lo = raw as u64 ^ self.keys.k0;
        let hi = (raw >> 64) as u64 ^ self.keys.k1;
        let folded = lo as u128 * hi as u128;
        self.hash = folded as u64 ^ (folded >> 64) as u64;
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("the session table hashes only TokenKey, through write_u128")
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// One independently locked slice of the sticky-session table: the bindings
/// whose token hashes to this shard, plus this shard's lookup counters.
///
/// A binding's value is an index into `palette`, the distinct versions this
/// shard has bound since it was last cleared (a split has only a few).
#[derive(Default)]
pub struct SessionShard {
    bindings: HashMap<TokenKey, u32, TokenHashKeys>,
    palette: Vec<VersionId>,
    hits: u64,
    misses: u64,
}

impl SessionShard {
    fn keyed(keys: TokenHashKeys) -> Self {
        Self {
            bindings: HashMap::with_hasher(keys),
            palette: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up the version bound to a token, recording a hit or miss.
    pub fn lookup(&mut self, token: SessionToken) -> Option<VersionId> {
        match self.bindings.get(&TokenKey::from(token)) {
            Some(&index) => {
                self.hits += 1;
                Some(self.palette[index as usize])
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Binds a token to a version.
    pub fn bind(&mut self, token: SessionToken, version: VersionId) {
        let index = match self.palette.iter().position(|&v| v == version) {
            Some(index) => index,
            None => {
                self.palette.push(version);
                self.palette.len() - 1
            }
        };
        let index = u32::try_from(index).expect("a shard binds fewer than 2^32 distinct versions");
        self.bindings.insert(TokenKey::from(token), index);
    }

    /// Number of bindings in this shard.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// Whether this shard holds no bindings.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    fn clear(&mut self) {
        self.bindings.clear();
        self.palette.clear();
    }

    fn sessions_on(&self, version: VersionId) -> usize {
        match self.palette.iter().position(|&v| v == version) {
            Some(index) => {
                let index = index as u32;
                self.bindings.values().filter(|&&v| v == index).count()
            }
            None => 0,
        }
    }
}

/// Prints the counts only: the table's iteration order depends on its
/// random keys.
impl fmt::Debug for SessionShard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionShard")
            .field("len", &self.len())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

/// The sticky-session table of a proxy: token → version, sharded by token
/// hash behind striped locks.
///
/// All methods take `&self`; concurrent callers (see
/// [`crate::BifrostProxy::route_many_costed`]) only contend when they touch
/// the same shard. Aggregate accessors ([`Self::len`],
/// [`Self::hits`], …) fold over the shards in index order; every aggregate
/// is a sum, so the result is independent of both shard count and shard
/// iteration order.
#[derive(Debug)]
pub struct SessionStore {
    shards: Vec<Mutex<SessionShard>>,
}

impl Default for SessionStore {
    fn default() -> Self {
        Self::with_shards(DEFAULT_SESSION_SHARDS)
    }
}

impl SessionStore {
    /// Creates an empty store with [`DEFAULT_SESSION_SHARDS`] shards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store with `shards` shards (clamped to
    /// `1..=`[`MAX_SESSION_SHARDS`]).
    pub fn with_shards(shards: usize) -> Self {
        let keys = TokenHashKeys::default();
        Self {
            shards: (0..shards.clamp(1, MAX_SESSION_SHARDS))
                .map(|_| Mutex::new(SessionShard::keyed(keys)))
                .collect(),
        }
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a token's bindings live in — a pure function of the token
    /// and the shard count, stable across calls.
    pub fn shard_of(&self, token: SessionToken) -> usize {
        (token.shard_hash() % self.shards.len() as u64) as usize
    }

    /// Locks and returns one shard (a routing call applies its bindings
    /// for each shard under one such lock).
    pub fn shard(&self, index: usize) -> MutexGuard<'_, SessionShard> {
        self.shards[index].lock()
    }

    /// Looks up the version bound to a token, recording a hit or miss in
    /// the token's shard.
    pub fn lookup(&self, token: SessionToken) -> Option<VersionId> {
        self.shard(self.shard_of(token)).lookup(token)
    }

    /// Binds a token to a version.
    pub fn bind(&self, token: SessionToken, version: VersionId) {
        self.shard(self.shard_of(token)).bind(token, version);
    }

    /// Removes every binding (called on state transitions, where assignments
    /// are rebuilt from the new routing configuration). Lookup counters are
    /// retained, matching the pre-sharding behaviour.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }

    /// Number of bound sessions across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bindings.len()).sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().bindings.is_empty())
    }

    /// Number of successful lookups across all shards.
    pub fn hits(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().hits).sum()
    }

    /// Number of failed lookups across all shards.
    pub fn misses(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().misses).sum()
    }

    /// Number of sessions currently bound to `version`.
    pub fn sessions_on(&self, version: VersionId) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().sessions_on(version))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_are_unique_and_deterministic() {
        let mut gen_a = TokenGenerator::seeded(1);
        let mut gen_b = TokenGenerator::seeded(1);
        let a: Vec<SessionToken> = (0..100).map(|_| gen_a.next_token()).collect();
        let b: Vec<SessionToken> = (0..100).map(|_| gen_b.next_token()).collect();
        assert_eq!(a, b);
        let unique: std::collections::BTreeSet<_> = a.iter().collect();
        assert_eq!(unique.len(), 100);
    }

    #[test]
    fn token_renders_as_rfc4122_uuid() {
        let mut generator = TokenGenerator::seeded(7);
        let token = generator.next_token();
        let text = token.to_string();
        assert_eq!(text.len(), 36);
        let parts: Vec<&str> = text.split('-').collect();
        assert_eq!(parts.len(), 5);
        assert_eq!(parts[0].len(), 8);
        assert_eq!(parts[1].len(), 4);
        assert_eq!(parts[2].len(), 4);
        assert_eq!(parts[3].len(), 4);
        assert_eq!(parts[4].len(), 12);
        // Version nibble is 4.
        assert!(parts[2].starts_with('4'));
        assert_eq!(SessionToken::from_raw(token.raw()), token);
    }

    #[test]
    fn bucket_draw_is_uniform_in_unit_interval() {
        let mut generator = TokenGenerator::seeded(11);
        let n = 10_000;
        let draws: Vec<f64> = (0..n)
            .map(|_| generator.next_token().bucket_draw())
            .collect();
        assert!(draws.iter().all(|d| (0.0..1.0).contains(d)));
        let mean = draws.iter().sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn bucket_draw_ignores_the_stamped_version_and_variant_bits() {
        // Two tokens that differ only in the RFC 4122 version/variant bit
        // positions must produce the same draw; two tokens that differ in the
        // low (unstamped) bits must not.
        let base = SessionToken::from_raw(0x0123_4567_89ab_cdef_0123_4567_89ab_cdef);
        let version_bits = SessionToken::from_raw(base.raw() | (0xF_u128 << 76));
        let variant_bits = SessionToken::from_raw(base.raw() | (0x3_u128 << 62));
        assert_eq!(base.bucket_draw(), version_bits.bucket_draw());
        assert_eq!(base.bucket_draw(), variant_bits.bucket_draw());
        let low_bits = SessionToken::from_raw(base.raw() ^ 1);
        assert_ne!(base.bucket_draw(), low_bits.bucket_draw());
    }

    #[test]
    fn session_store_binding_lifecycle() {
        let store = SessionStore::new();
        let mut generator = TokenGenerator::seeded(3);
        let token = generator.next_token();
        let v1 = VersionId::new(1);
        let v2 = VersionId::new(2);

        assert!(store.lookup(token).is_none());
        store.bind(token, v1);
        assert_eq!(store.lookup(token), Some(v1));
        assert_eq!(store.hits(), 1);
        assert_eq!(store.misses(), 1);
        assert_eq!(store.len(), 1);
        assert_eq!(store.sessions_on(v1), 1);
        assert_eq!(store.sessions_on(v2), 0);

        // Rebinding overwrites.
        store.bind(token, v2);
        assert_eq!(store.lookup(token), Some(v2));

        store.clear();
        assert!(store.is_empty());
        assert!(store.lookup(token).is_none());
    }

    #[test]
    fn shard_assignment_is_stable_and_bounded() {
        let store = SessionStore::with_shards(16);
        assert_eq!(store.shard_count(), 16);
        let mut generator = TokenGenerator::seeded(9);
        for _ in 0..1_000 {
            let token = generator.next_token();
            let shard = store.shard_of(token);
            assert!(shard < 16);
            assert_eq!(shard, store.shard_of(token), "assignment must be stable");
        }
    }

    #[test]
    fn bindings_land_in_their_assigned_shard() {
        let store = SessionStore::with_shards(8);
        let mut generator = TokenGenerator::seeded(5);
        for i in 0..500 {
            let token = generator.next_token();
            store.bind(token, VersionId::new(i % 3));
            let expected = store.shard_of(token);
            for index in 0..store.shard_count() {
                let holds = store
                    .shard(index)
                    .bindings
                    .contains_key(&TokenKey::from(token));
                assert_eq!(holds, index == expected, "token in wrong shard");
            }
        }
        let per_shard: Vec<usize> = (0..8).map(|i| store.shard(i).len()).collect();
        assert_eq!(per_shard.iter().sum::<usize>(), store.len());
        // The hash spreads tokens over all shards.
        assert!(per_shard.iter().all(|&n| n > 0), "shards {per_shard:?}");
    }

    #[test]
    fn table_entries_are_twenty_bytes() {
        // `peak_rss_mb` on perfbench's `sticky_rollout` depends on this: at
        // peak each of its 8 shards holds about 65K bindings at half load
        // in 131,072 buckets, and a `u128` key would pad each entry to
        // 32 B, about 12 MiB more in all.
        assert_eq!(std::mem::size_of::<(TokenKey, u32)>(), 20);
    }

    #[test]
    fn degenerate_shard_counts_are_clamped() {
        let store = SessionStore::with_shards(0);
        assert_eq!(store.shard_count(), 1);
        let token = TokenGenerator::seeded(1).next_token();
        assert_eq!(store.shard_of(token), 0);
        // The upper bound keeps a typo'd knob from demanding an absurd
        // allocation.
        let store = SessionStore::with_shards(usize::MAX);
        assert_eq!(store.shard_count(), MAX_SESSION_SHARDS);
    }
}
