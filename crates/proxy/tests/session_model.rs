//! Model test of the sharded session store.
//!
//! Seeded random interleavings of `bind` (new tokens and rebinds, through
//! the store and through a locked shard), `lookup` (hits and misses),
//! `clear`, `len`, `hits`, `misses` and `sessions_on` run against a
//! `BTreeMap<SessionToken, VersionId>` reference at 1, 8, 16 and 1024
//! shards. The token pool holds tokens that agree on their high 64 bits,
//! tokens that agree on their low 64 bits and tokens that differ only in
//! the stamped RFC 4122 version and variant bits, so a table keyed on part
//! of the token merges bindings the reference keeps apart. The version pool
//! is larger than a split's, and some of its ids exceed `u32::MAX` while
//! agreeing with small ids in their low 32 bits.
//!
//! A second store replays every operation; its table hash has other random
//! keys, and its `Debug` rendering must match the first store's.

use bifrost_core::hash::splitmix64;
use bifrost_core::ids::VersionId;
use bifrost_proxy::{SessionStore, SessionToken, TokenGenerator};
use std::collections::BTreeMap;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

fn token_pool(rng: &mut Rng) -> Vec<SessionToken> {
    let mut generator = TokenGenerator::seeded(rng.next());
    let mut raw: Vec<u128> = (0..64).map(|_| generator.next_token().raw()).collect();
    let high = (rng.next() as u128) << 64;
    let low = rng.next() as u128;
    for i in 0..24u128 {
        // Shared high half: low halves both sequential and random.
        raw.push(high | i);
        raw.push(high | rng.next() as u128);
        // Shared low half.
        raw.push(i << 64 | low);
        raw.push((rng.next() as u128) << 64 | low);
    }
    // One generated token with every version nibble (bits 76–79) and
    // variant pair (bits 62–63).
    let base = generator.next_token().raw() & !(0xF_u128 << 76) & !(0x3_u128 << 62);
    for nibble in 0..16u128 {
        for variant in 0..4u128 {
            raw.push(base | nibble << 76 | variant << 62);
        }
    }
    raw.extend([0, u128::MAX, 1, 1 << 64]);
    raw.sort_unstable();
    raw.dedup();
    raw.into_iter().map(SessionToken::from_raw).collect()
}

fn version_pool() -> Vec<VersionId> {
    let small = (0..10).map(VersionId::new);
    let big = [
        u64::from(u32::MAX),
        u64::from(u32::MAX) + 1,
        (1 << 32) + 1,
        (1 << 40) + 2,
        u64::MAX,
    ]
    .into_iter()
    .map(VersionId::new);
    small.chain(big).collect()
}

struct Model {
    bindings: BTreeMap<SessionToken, VersionId>,
    hits: u64,
    misses: u64,
}

impl Model {
    fn lookup(&mut self, token: SessionToken) -> Option<VersionId> {
        let found = self.bindings.get(&token).copied();
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }
}

fn check_aggregates(store: &SessionStore, model: &Model, versions: &[VersionId], ctx: &str) {
    assert_eq!(store.len(), model.bindings.len(), "len {ctx}");
    assert_eq!(
        store.is_empty(),
        model.bindings.is_empty(),
        "is_empty {ctx}"
    );
    assert_eq!(store.hits(), model.hits, "hits {ctx}");
    assert_eq!(store.misses(), model.misses, "misses {ctx}");
    for &version in versions {
        let expected = model.bindings.values().filter(|&&v| v == version).count();
        assert_eq!(
            store.sessions_on(version),
            expected,
            "sessions_on({version}) {ctx}"
        );
    }
    let per_shard: usize = (0..store.shard_count()).map(|i| store.shard(i).len()).sum();
    assert_eq!(per_shard, model.bindings.len(), "per-shard len {ctx}");
}

fn run(seed: u64, shards: usize, ops: usize) {
    let mut rng = Rng(seed);
    let tokens = token_pool(&mut rng);
    let versions = version_pool();
    let store = SessionStore::with_shards(shards);
    let twin = SessionStore::with_shards(shards);
    let mut model = Model {
        bindings: BTreeMap::new(),
        hits: 0,
        misses: 0,
    };
    // Most seeds bind a few versions at a time, as a split does; the rest
    // draw from the whole pool.
    let active = if seed.is_multiple_of(4) {
        versions.clone()
    } else {
        (0..3).map(|_| rng.pick(&versions)).collect()
    };

    for op in 0..ops {
        let ctx = format!("seed {seed}, {shards} shards, op {op}");
        match rng.below(100) {
            0..=39 => {
                let token = rng.pick(&tokens);
                let version = rng.pick(&active);
                store.bind(token, version);
                twin.bind(token, version);
                model.bindings.insert(token, version);
            }
            40..=49 => {
                // The routing path: bind under the shard's own lock.
                let token = rng.pick(&tokens);
                let version = rng.pick(&versions);
                store.shard(store.shard_of(token)).bind(token, version);
                twin.shard(twin.shard_of(token)).bind(token, version);
                model.bindings.insert(token, version);
            }
            50..=69 => {
                // A token bound earlier, so most of these hit.
                let token = match model
                    .bindings
                    .keys()
                    .nth(rng.below(model.bindings.len() + 1))
                {
                    Some(&token) => token,
                    None => rng.pick(&tokens),
                };
                let expected = model.lookup(token);
                assert_eq!(store.lookup(token), expected, "lookup {ctx}");
                assert_eq!(twin.lookup(token), expected, "twin lookup {ctx}");
            }
            70..=89 => {
                let token = rng.pick(&tokens);
                let expected = model.lookup(token);
                assert_eq!(
                    store.shard(store.shard_of(token)).lookup(token),
                    expected,
                    "shard lookup {ctx}"
                );
                twin.lookup(token);
            }
            90..=94 => check_aggregates(&store, &model, &versions, &ctx),
            _ => {
                if rng.below(4) == 0 {
                    store.clear();
                    twin.clear();
                    model.bindings.clear();
                }
            }
        }
    }
    let ctx = format!("seed {seed}, {shards} shards, end");
    check_aggregates(&store, &model, &versions, &ctx);
    assert_eq!(format!("{store:?}"), format!("{twin:?}"), "{ctx}");
    for &token in &tokens {
        assert_eq!(
            store.lookup(token),
            model.lookup(token),
            "final lookup {ctx}"
        );
    }
}

#[test]
fn session_store_matches_a_btreemap_model() {
    for shards in [1, 8, 16, 1_024] {
        for seed in 0..8 {
            run(seed * 7_919 + shards as u64, shards, 2_000);
        }
    }
}
