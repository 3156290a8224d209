//! The open-loop arrival process: when requests arrive and what kind they
//! are.

use crate::requests::{RequestKind, RequestMix};
use bifrost_core::ids::UserId;
use bifrost_core::seed::Seed;
use bifrost_simnet::{SimRng, SimTime};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// The load profile of an experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadProfile {
    /// Steady-state request rate (requests per second).
    pub requests_per_second: f64,
    /// Ramp-up period during which the rate grows linearly from zero.
    pub ramp_up: Duration,
    /// Total duration of traffic generation (including the ramp-up).
    pub duration: Duration,
    /// The request mix.
    pub mix: RequestMix,
    /// Size of the simulated user population issuing the requests.
    pub user_count: u64,
    /// Whether arrivals are jittered (exponential inter-arrival times) or
    /// perfectly periodic.
    pub poisson_arrivals: bool,
}

impl LoadProfile {
    /// The paper's profile: 30 s ramp-up, 35 req/s steady state, even mix.
    pub fn paper_profile(duration: Duration) -> Self {
        Self {
            requests_per_second: 35.0,
            ramp_up: Duration::from_secs(30),
            duration,
            mix: RequestMix::paper_mix(),
            user_count: 1_000,
            poisson_arrivals: false,
        }
    }

    /// Overrides the request rate (builder style).
    pub fn with_rate(mut self, requests_per_second: f64) -> Self {
        self.requests_per_second = requests_per_second;
        self
    }

    /// Overrides the user population size (builder style).
    pub fn with_users(mut self, user_count: u64) -> Self {
        self.user_count = user_count.max(1);
        self
    }

    /// Generates the full arrival plan for the profile: a `collect()` over
    /// [`LoadProfile::cursor`]. On return `rng` has advanced past every draw
    /// the plan made.
    pub fn plan(&self, rng: &mut SimRng) -> ArrivalPlan {
        let mut cursor = self.cursor(rng.clone());
        let arrivals = cursor.by_ref().collect();
        *rng = cursor.state.rng;
        ArrivalPlan { arrivals }
    }

    /// Generates the arrival plan from a [`Seed`], decorrelated into the
    /// `"workload"` stream. This is the entry point the multi-trial runner
    /// uses: the same seed always yields the same plan, and different layers
    /// seeded from the same trial seed consume distinct random sequences.
    pub fn plan_seeded(&self, seed: Seed) -> ArrivalPlan {
        ArrivalPlan {
            arrivals: self.cursor_seeded(seed).collect(),
        }
    }

    /// The profile's arrivals, generated one at a time from `rng`, in the
    /// order and with the draws of [`LoadProfile::plan`].
    pub fn cursor(&self, rng: SimRng) -> ArrivalCursor<'_> {
        self.resume(&ArrivalCheckpoint { rng, now: 0.0 })
    }

    /// The arrivals of [`LoadProfile::plan_seeded`], generated one at a
    /// time.
    pub fn cursor_seeded(&self, seed: Seed) -> ArrivalCursor<'_> {
        self.cursor(SimRng::seeded(seed.stream("workload").value()))
    }

    /// Resumes generation at `checkpoint`, taken by
    /// [`ArrivalCursor::checkpoint`] on a cursor over this profile: the
    /// result yields exactly what that cursor yielded after the checkpoint.
    pub fn resume(&self, checkpoint: &ArrivalCheckpoint) -> ArrivalCursor<'_> {
        ArrivalCursor {
            profile: self,
            state: checkpoint.clone(),
        }
    }
}

/// The generator state between two arrivals: the random source and the
/// virtual clock (seconds) of the last arrival. Resuming from it replays
/// the same arrivals without generating the ones before it.
#[derive(Debug, Clone)]
pub struct ArrivalCheckpoint {
    rng: SimRng,
    now: f64,
}

/// A profile's arrivals, generated lazily in time order (see
/// [`LoadProfile::cursor`]). It holds no arrivals, so a profile of any
/// length streams in constant memory.
#[derive(Debug, Clone)]
pub struct ArrivalCursor<'a> {
    profile: &'a LoadProfile,
    state: ArrivalCheckpoint,
}

impl<'a> ArrivalCursor<'a> {
    /// The state before the next arrival, for [`LoadProfile::resume`].
    pub fn checkpoint(&self) -> ArrivalCheckpoint {
        self.state.clone()
    }

    /// Groups the remaining arrivals into per-tick [`TickCheckpoint`]s: one
    /// per non-empty `tick`-sized window, as [`ArrivalPlan::batches`]
    /// groups a plan, with the state before the window's first arrival in
    /// place of the arrivals.
    pub fn ticks(self, tick: Duration) -> TickCheckpoints<'a> {
        TickCheckpoints {
            cursor: self,
            tick_micros: tick.as_micros().max(1) as u64,
            pending: None,
        }
    }
}

impl Iterator for ArrivalCursor<'_> {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        let profile = self.profile;
        let state = &mut self.state;
        let end = profile.duration.as_secs_f64();
        if state.now >= end {
            return None;
        }
        let ramp = profile.ramp_up.as_secs_f64();
        // Current target rate: linear ramp, then steady state.
        let rate = if state.now < ramp && ramp > 0.0 {
            (profile.requests_per_second * (state.now / ramp)).max(1.0)
        } else {
            profile.requests_per_second
        };
        let gap = if profile.poisson_arrivals {
            state.rng.exponential(1.0 / rate)
        } else {
            1.0 / rate
        };
        state.now += gap;
        if state.now >= end {
            return None;
        }
        let kind = profile.mix.sample(&mut state.rng);
        let user = UserId::new(
            (state.rng.uniform() * profile.user_count as f64) as u64 % profile.user_count,
        );
        Some(Arrival {
            at: SimTime::from_secs_f64(state.now),
            kind,
            user,
        })
    }
}

/// One non-empty tick of a profile's arrivals, without the arrivals:
/// `profile.resume(&start).take(count)` regenerates them.
#[derive(Debug, Clone)]
pub struct TickCheckpoint {
    /// The tick index (`floor(arrival time / tick)`).
    pub index: u64,
    /// The end of the tick window (exclusive).
    pub end: SimTime,
    /// The number of arrivals in the tick.
    pub count: usize,
    /// The generator state before the tick's first arrival.
    pub start: ArrivalCheckpoint,
}

/// Iterator over the non-empty ticks of an [`ArrivalCursor`] (see
/// [`ArrivalCursor::ticks`]). It draws every arrival once and keeps none.
#[derive(Debug, Clone)]
pub struct TickCheckpoints<'a> {
    cursor: ArrivalCursor<'a>,
    tick_micros: u64,
    /// The next tick's first arrival and the state before it, read ahead
    /// to close the current tick.
    pending: Option<(ArrivalCheckpoint, Arrival)>,
}

impl TickCheckpoints<'_> {
    /// The next arrival and the state before it.
    fn step(&mut self) -> Option<(ArrivalCheckpoint, Arrival)> {
        let before = self.cursor.checkpoint();
        self.cursor.next().map(|arrival| (before, arrival))
    }
}

impl Iterator for TickCheckpoints<'_> {
    type Item = TickCheckpoint;

    fn next(&mut self) -> Option<TickCheckpoint> {
        let (start, first) = match self.pending.take() {
            Some(pending) => pending,
            None => self.step()?,
        };
        let index = first.at.as_micros() / self.tick_micros;
        let mut count = 1;
        loop {
            match self.step() {
                Some((_, arrival)) if arrival.at.as_micros() / self.tick_micros == index => {
                    count += 1;
                }
                next => {
                    self.pending = next;
                    break;
                }
            }
        }
        Some(TickCheckpoint {
            index,
            end: SimTime::from_micros((index + 1) * self.tick_micros),
            count,
            start,
        })
    }
}

/// One planned request arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Arrival {
    /// When the request arrives at the application entry point.
    pub at: SimTime,
    /// The request type.
    pub kind: RequestKind,
    /// The user issuing the request.
    pub user: UserId,
}

/// A complete, time-ordered arrival plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalPlan {
    arrivals: Vec<Arrival>,
}

impl ArrivalPlan {
    /// The arrivals in time order.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// Number of planned requests.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Iterates the plan as per-tick batches: consecutive arrivals whose
    /// timestamps fall into the same `tick`-sized window are grouped into
    /// one [`ArrivalBatch`]. Empty windows are skipped. The batches are
    /// the ticks [`ArrivalCursor::ticks`] checkpoints over the same
    /// generator, which is how the engine's traffic simulation consumes a
    /// profile without holding its plan.
    pub fn batches(&self, tick: Duration) -> TickBatches<'_> {
        TickBatches {
            arrivals: &self.arrivals,
            tick_micros: tick.as_micros().max(1) as u64,
            cursor: 0,
        }
    }

    /// The average request rate over the window `[from, to)`.
    pub fn rate_between(&self, from: SimTime, to: SimTime) -> f64 {
        let window = (to - from).as_secs_f64();
        if window <= 0.0 {
            return 0.0;
        }
        let count = self
            .arrivals
            .iter()
            .filter(|a| a.at >= from && a.at < to)
            .count();
        count as f64 / window
    }
}

/// One tick's worth of arrivals (see [`ArrivalPlan::batches`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalBatch<'a> {
    /// The tick index (`floor(arrival time / tick)`), shared by every
    /// arrival in the batch.
    pub index: u64,
    /// The end of the tick window (exclusive): all arrivals in the batch
    /// have happened by this virtual time.
    pub end: SimTime,
    /// The arrivals of the tick, in time order.
    pub arrivals: &'a [Arrival],
}

/// Iterator over the non-empty per-tick batches of an [`ArrivalPlan`].
#[derive(Debug, Clone)]
pub struct TickBatches<'a> {
    arrivals: &'a [Arrival],
    tick_micros: u64,
    cursor: usize,
}

impl<'a> Iterator for TickBatches<'a> {
    type Item = ArrivalBatch<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        let first = self.arrivals.get(self.cursor)?;
        let index = first.at.as_micros() / self.tick_micros;
        let start = self.cursor;
        let mut end = self.cursor + 1;
        while self
            .arrivals
            .get(end)
            .is_some_and(|a| a.at.as_micros() / self.tick_micros == index)
        {
            end += 1;
        }
        self.cursor = end;
        Some(ArrivalBatch {
            index,
            end: SimTime::from_micros((index + 1) * self.tick_micros),
            arrivals: &self.arrivals[start..end],
        })
    }
}

impl IntoIterator for ArrivalPlan {
    type Item = Arrival;
    type IntoIter = std::vec::IntoIter<Arrival>;

    fn into_iter(self) -> Self::IntoIter {
        self.arrivals.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profile_produces_expected_rate() {
        let profile = LoadProfile::paper_profile(Duration::from_secs(120));
        let mut rng = SimRng::seeded(1);
        let plan = profile.plan(&mut rng);
        assert!(!plan.is_empty());
        // After ramp-up the steady-state rate is ~35 req/s.
        let steady = plan.rate_between(SimTime::from_secs(60), SimTime::from_secs(120));
        assert!((steady - 35.0).abs() < 2.0, "steady rate {steady}");
        // During the first seconds of the ramp the rate is much lower.
        let early = plan.rate_between(SimTime::ZERO, SimTime::from_secs(10));
        assert!(early < 20.0, "early rate {early}");
        // Arrivals are time-ordered.
        assert!(plan.arrivals().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn poisson_arrivals_have_similar_mean_rate() {
        let profile = LoadProfile {
            poisson_arrivals: true,
            ..LoadProfile::paper_profile(Duration::from_secs(200))
        }
        .with_rate(20.0);
        let mut rng = SimRng::seeded(5);
        let plan = profile.plan(&mut rng);
        let rate = plan.rate_between(SimTime::from_secs(40), SimTime::from_secs(200));
        assert!((rate - 20.0).abs() < 2.0, "rate {rate}");
    }

    #[test]
    fn users_are_drawn_from_the_population() {
        let profile = LoadProfile::paper_profile(Duration::from_secs(60)).with_users(10);
        let mut rng = SimRng::seeded(3);
        let plan = profile.plan(&mut rng);
        assert!(plan.arrivals().iter().all(|a| a.user.raw() < 10));
        let distinct: std::collections::BTreeSet<_> =
            plan.arrivals().iter().map(|a| a.user).collect();
        assert!(distinct.len() > 3);
    }

    #[test]
    fn plan_is_deterministic_per_seed() {
        let profile = LoadProfile::paper_profile(Duration::from_secs(90));
        let a = profile.plan(&mut SimRng::seeded(7));
        let b = profile.plan(&mut SimRng::seeded(7));
        assert_eq!(a, b);
        let c = profile.plan(&mut SimRng::seeded(8));
        assert_ne!(a, c);
    }

    #[test]
    fn seeded_plan_is_deterministic_and_stream_scoped() {
        let profile = LoadProfile::paper_profile(Duration::from_secs(90));
        let a = profile.plan_seeded(Seed::new(7));
        let b = profile.plan_seeded(Seed::new(7));
        assert_eq!(a, b);
        assert_ne!(a, profile.plan_seeded(Seed::new(8)));
        // The workload stream is decorrelated from the raw seed: using the
        // raw value directly yields a different plan.
        assert_ne!(a, profile.plan(&mut SimRng::seeded(7)));
    }

    #[test]
    fn mix_override_changes_composition() {
        let profile = LoadProfile {
            mix: RequestMix::custom(0.0, 0.0, 0.0, 1.0),
            ..LoadProfile::paper_profile(Duration::from_secs(300))
        };
        let mut rng = SimRng::seeded(2);
        let plan = profile.plan(&mut rng);
        assert!(plan
            .arrivals()
            .iter()
            .all(|a| a.kind == RequestKind::Search));
        assert_eq!(plan.len(), plan.into_iter().count());
    }

    #[test]
    fn batches_partition_the_plan_by_tick() {
        let profile = LoadProfile {
            poisson_arrivals: true,
            ..LoadProfile::paper_profile(Duration::from_secs(60))
        };
        let plan = profile.plan(&mut SimRng::seeded(9));
        let tick = Duration::from_secs(1);
        let batches: Vec<_> = plan.batches(tick).collect();
        // Every arrival appears exactly once, in order.
        let total: usize = batches.iter().map(|b| b.arrivals.len()).sum();
        assert_eq!(total, plan.len());
        // Tick indices are strictly increasing and each batch's arrivals fall
        // inside its window.
        assert!(batches.windows(2).all(|w| w[0].index < w[1].index));
        for batch in &batches {
            let start_us = batch.index * 1_000_000;
            let end_us = (batch.index + 1) * 1_000_000;
            assert_eq!(batch.end, SimTime::from_micros(end_us));
            assert!(batch
                .arrivals
                .iter()
                .all(|a| (start_us..end_us).contains(&a.at.as_micros())));
        }
        // A tick wider than the plan yields a single batch.
        assert_eq!(plan.batches(Duration::from_secs(3_600)).count(), 1);
        // An empty plan yields no batches.
        let empty = ArrivalPlan {
            arrivals: Vec::new(),
        };
        assert_eq!(empty.batches(tick).count(), 0);
    }

    /// Regenerates the ticks at `order` (indices into `ticks`) from their
    /// checkpoints.
    fn regenerate(
        profile: &LoadProfile,
        ticks: &[TickCheckpoint],
        order: &[usize],
    ) -> Vec<(u64, SimTime, Vec<Arrival>)> {
        order
            .iter()
            .map(|&i| {
                let tick = &ticks[i];
                let arrivals = profile.resume(&tick.start).take(tick.count).collect();
                (tick.index, tick.end, arrivals)
            })
            .collect()
    }

    #[test]
    fn ticks_regenerate_from_checkpoints_in_any_order() {
        let ramped = LoadProfile::paper_profile(Duration::from_secs(60)).with_rate(50.0);
        let steady = LoadProfile {
            ramp_up: Duration::ZERO,
            ..ramped.clone()
        };
        // Under one request per second on 1 s ticks, so most ticks are
        // empty.
        let sparse = LoadProfile {
            requests_per_second: 0.3,
            ramp_up: Duration::ZERO,
            duration: Duration::from_secs(200),
            poisson_arrivals: true,
            ..ramped.clone()
        };
        let mut profiles = vec![sparse];
        for base in [ramped, steady] {
            for poisson_arrivals in [true, false] {
                profiles.push(LoadProfile {
                    poisson_arrivals,
                    ..base.clone()
                });
            }
        }
        let ticks = [1, 100, 1_000, 3_600_000].map(Duration::from_millis);
        for (p, profile) in profiles.iter().enumerate() {
            for seed in [3, 11] {
                let seed = Seed::new(seed);
                let plan = profile.plan_seeded(seed);
                for tick in ticks {
                    let expected: Vec<_> = plan
                        .batches(tick)
                        .map(|b| (b.index, b.end, b.arrivals.to_vec()))
                        .collect();
                    let checkpoints: Vec<_> = profile.cursor_seeded(seed).ticks(tick).collect();
                    let n = checkpoints.len();
                    assert_eq!(n, expected.len(), "profile {p}, tick {tick:?}");
                    let forward: Vec<usize> = (0..n).collect();
                    assert_eq!(regenerate(profile, &checkpoints, &forward), expected);
                    let reversed: Vec<usize> = (0..n).rev().collect();
                    let mut backwards = regenerate(profile, &checkpoints, &reversed);
                    backwards.reverse();
                    assert_eq!(backwards, expected);
                    // Every third tick, starting at the second: the ticks
                    // skipped before each one leave it unchanged.
                    let skipping: Vec<usize> = (1..n).step_by(3).collect();
                    let picked: Vec<_> = skipping.iter().map(|&i| expected[i].clone()).collect();
                    assert_eq!(regenerate(profile, &checkpoints, &skipping), picked);
                }
                // The sparse profile leaves ticks empty, and empty ticks get
                // no checkpoint.
                if p == 0 {
                    let second: Vec<_> = profile
                        .cursor_seeded(seed)
                        .ticks(Duration::from_secs(1))
                        .collect();
                    assert!(second.len() < second.last().unwrap().index as usize);
                }
            }
        }
    }

    #[test]
    fn cursors_follow_the_plans_draws() {
        let profile = LoadProfile {
            poisson_arrivals: true,
            ..LoadProfile::paper_profile(Duration::from_secs(40))
        };
        let mut rng = SimRng::seeded(4);
        let plan = profile.plan(&mut rng);
        let mut cursor = profile.cursor(SimRng::seeded(4));
        assert_eq!(cursor.by_ref().collect::<Vec<_>>(), plan.arrivals());
        assert_eq!(cursor.next(), None);
        // `plan` leaves its generator where the cursor left its own.
        let mut after = cursor.checkpoint().rng;
        assert_eq!(rng.uniform().to_bits(), after.uniform().to_bits());
        // A checkpoint taken midway resumes the rest of the plan.
        let mut cursor = profile.cursor_seeded(Seed::new(4));
        let plan = profile.plan_seeded(Seed::new(4));
        cursor.by_ref().take(100).for_each(drop);
        let rest: Vec<_> = profile.resume(&cursor.checkpoint()).collect();
        assert_eq!(rest, plan.arrivals()[100..]);
    }

    #[test]
    fn degenerate_rate_window() {
        let profile = LoadProfile::paper_profile(Duration::from_secs(30));
        let plan = profile.plan(&mut SimRng::seeded(1));
        assert_eq!(
            plan.rate_between(SimTime::from_secs(10), SimTime::from_secs(10)),
            0.0
        );
    }
}
