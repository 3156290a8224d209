//! The engine's event machinery: the pending-action queue and the emitted
//! event stream.
//!
//! [`EventQueue`] is the engine's time-ordered scheduler — a binary heap of
//! `(fire time, sequence, action)` entries with a FIFO tie-break, popped in
//! strictly non-decreasing time order; events scheduled in the past are
//! clamped to the current time. It lives in the engine so the hot loop owns
//! its queue: [`EventQueue::schedule_batch`] (the per-state check-timer
//! fan-out) reserves heap capacity once. The engine-side *algorithmic* wins of this layer are elsewhere: the O(1)
//! `BifrostEngine::all_finished` counter and the indexed [`EventLog`]
//! below.
//!
//! Every significant action of the engine is recorded as an [`EngineEvent`]
//! in the [`EventLog`]. The CLI and dashboard consume this stream for status
//! updates; the experiment harnesses use it to reconstruct enactment
//! timelines; tests use it to assert on the engine's behaviour. The log
//! maintains a per-strategy index so [`EventLog::for_strategy`] is
//! proportional to that strategy's events rather than to the whole log —
//! the difference between O(n) and O(n²) when a harness extracts the
//! timelines of hundreds of parallel strategies.

use bifrost_core::ids::{CheckId, StateId, StrategyId};
use bifrost_core::ServiceId;
use bifrost_simnet::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// One entry of the engine's pending-action heap.
struct QueueEntry<A> {
    at: SimTime,
    sequence: u64,
    action: A,
}

impl<A> PartialEq for QueueEntry<A> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.sequence == other.sequence
    }
}
impl<A> Eq for QueueEntry<A> {}
impl<A> PartialOrd for QueueEntry<A> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<A> Ord for QueueEntry<A> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.sequence).cmp(&(other.at, other.sequence))
    }
}

/// A fired queue entry: when it was due and what it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DueAction<A> {
    /// The virtual time the action was scheduled for.
    pub at: SimTime,
    /// The action payload.
    pub action: A,
}

/// The engine's time-ordered action scheduler: a min-heap over
/// `(fire time, insertion sequence)` so simultaneous actions fire in FIFO
/// order and virtual time never runs backwards.
pub struct EventQueue<A> {
    heap: BinaryHeap<Reverse<QueueEntry<A>>>,
    now: SimTime,
    next_sequence: u64,
    processed: u64,
}

impl<A> Default for EventQueue<A> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_sequence: 0,
            processed: 0,
        }
    }
}

impl<A> EventQueue<A> {
    /// Creates an empty queue at virtual time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current virtual time (the fire time of the most recently popped
    /// action, or zero initially).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an action at an absolute virtual time. Actions scheduled in
    /// the past are clamped to the current time (they fire "now").
    pub fn schedule_at(&mut self, at: SimTime, action: A) {
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        self.heap.push(Reverse(QueueEntry {
            at: at.max(self.now),
            sequence,
            action,
        }));
    }

    /// Schedules a batch of `(time, action)` pairs in iteration order — the
    /// per-state fan-out of check-timer repetitions uses this to reserve
    /// heap capacity once.
    pub fn schedule_batch(&mut self, batch: impl IntoIterator<Item = (SimTime, A)>) {
        let batch = batch.into_iter();
        self.heap.reserve(batch.size_hint().0);
        for (at, action) in batch {
            self.schedule_at(at, action);
        }
    }

    /// Pops the next due action, advancing the virtual clock to its fire
    /// time.
    pub fn pop(&mut self) -> Option<DueAction<A>> {
        self.heap.pop().map(|Reverse(entry)| {
            self.now = self.now.max(entry.at);
            self.processed += 1;
            DueAction {
                at: entry.at,
                action: entry.action,
            }
        })
    }

    /// Pops the next action only if it fires at or before `deadline`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<DueAction<A>> {
        match self.heap.peek() {
            Some(Reverse(entry)) if entry.at <= deadline => self.pop(),
            _ => None,
        }
    }

    /// The fire time of the next pending action without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(entry)| entry.at)
    }

    /// Number of pending actions.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no actions are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of actions popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Advances the clock to `at` without processing actions (used to close
    /// out a run window after the last event).
    pub fn advance_to(&mut self, at: SimTime) {
        self.now = self.now.max(at);
    }
}

impl<A> std::fmt::Debug for EventQueue<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("processed", &self.processed)
            .finish()
    }
}

/// One entry of the engine's event stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EngineEvent {
    /// A strategy was scheduled for execution.
    StrategyScheduled {
        /// The strategy.
        strategy: StrategyId,
        /// When execution is supposed to start.
        start_at: SimTime,
    },
    /// A strategy's execution actually started.
    StrategyStarted {
        /// The strategy.
        strategy: StrategyId,
        /// When it started.
        at: SimTime,
    },
    /// The automaton entered a state.
    StateEntered {
        /// The strategy.
        strategy: StrategyId,
        /// The state entered.
        state: StateId,
        /// When it was entered.
        at: SimTime,
    },
    /// A proxy received a new routing configuration.
    ProxyConfigured {
        /// The strategy that caused the update.
        strategy: StrategyId,
        /// The service whose proxy was updated.
        service: ServiceId,
        /// The new configuration revision.
        revision: u64,
        /// When the update completed.
        at: SimTime,
    },
    /// One timed execution of a check completed.
    CheckExecuted {
        /// The strategy.
        strategy: StrategyId,
        /// The state the check belongs to.
        state: StateId,
        /// The executed check.
        check: CheckId,
        /// Whether the execution returned 1 (success) or 0 (failure).
        success: bool,
        /// When the execution completed.
        at: SimTime,
    },
    /// An exception check failed, forcing an immediate fallback transition.
    ExceptionTriggered {
        /// The strategy.
        strategy: StrategyId,
        /// The state that was aborted.
        state: StateId,
        /// The failing check.
        check: CheckId,
        /// The fallback state.
        fallback: StateId,
        /// When it happened.
        at: SimTime,
    },
    /// A state finished and its outcome was evaluated.
    StateEvaluated {
        /// The strategy.
        strategy: StrategyId,
        /// The evaluated state.
        state: StateId,
        /// The aggregated, weighted outcome value.
        outcome: i64,
        /// The successor chosen by the transition function (`None` when the
        /// state was final).
        next: Option<StateId>,
        /// When the evaluation completed.
        at: SimTime,
    },
    /// A strategy finished (reached a final state).
    StrategyCompleted {
        /// The strategy.
        strategy: StrategyId,
        /// The final state reached.
        final_state: StateId,
        /// Whether the final state is the success state.
        success: bool,
        /// When it completed.
        at: SimTime,
    },
}

impl EngineEvent {
    /// The strategy the event belongs to.
    pub fn strategy(&self) -> StrategyId {
        match self {
            EngineEvent::StrategyScheduled { strategy, .. }
            | EngineEvent::StrategyStarted { strategy, .. }
            | EngineEvent::StateEntered { strategy, .. }
            | EngineEvent::ProxyConfigured { strategy, .. }
            | EngineEvent::CheckExecuted { strategy, .. }
            | EngineEvent::ExceptionTriggered { strategy, .. }
            | EngineEvent::StateEvaluated { strategy, .. }
            | EngineEvent::StrategyCompleted { strategy, .. } => *strategy,
        }
    }

    /// The virtual time the event refers to.
    pub fn at(&self) -> SimTime {
        match self {
            EngineEvent::StrategyScheduled { start_at, .. } => *start_at,
            EngineEvent::StrategyStarted { at, .. }
            | EngineEvent::StateEntered { at, .. }
            | EngineEvent::ProxyConfigured { at, .. }
            | EngineEvent::CheckExecuted { at, .. }
            | EngineEvent::ExceptionTriggered { at, .. }
            | EngineEvent::StateEvaluated { at, .. }
            | EngineEvent::StrategyCompleted { at, .. } => *at,
        }
    }

    /// A short human-readable description used by the CLI/dashboard.
    pub fn describe(&self) -> String {
        match self {
            EngineEvent::StrategyScheduled { strategy, start_at } => {
                format!("{strategy} scheduled to start at {start_at}")
            }
            EngineEvent::StrategyStarted { strategy, at } => {
                format!("{strategy} started at {at}")
            }
            EngineEvent::StateEntered {
                strategy,
                state,
                at,
            } => {
                format!("{strategy} entered {state} at {at}")
            }
            EngineEvent::ProxyConfigured {
                strategy,
                service,
                revision,
                at,
            } => format!("{strategy} configured proxy of {service} (rev {revision}) at {at}"),
            EngineEvent::CheckExecuted {
                strategy,
                check,
                success,
                at,
                ..
            } => format!(
                "{strategy} executed {check} at {at}: {}",
                if *success { "ok" } else { "failed" }
            ),
            EngineEvent::ExceptionTriggered {
                strategy,
                check,
                fallback,
                at,
                ..
            } => format!("{strategy} exception on {check} at {at}, falling back to {fallback}"),
            EngineEvent::StateEvaluated {
                strategy,
                state,
                outcome,
                next,
                at,
            } => match next {
                Some(next) => {
                    format!("{strategy} evaluated {state} at {at}: outcome {outcome} → {next}")
                }
                None => format!("{strategy} evaluated final {state} at {at}: outcome {outcome}"),
            },
            EngineEvent::StrategyCompleted {
                strategy,
                final_state,
                success,
                at,
            } => format!(
                "{strategy} completed in {final_state} at {at} ({})",
                if *success {
                    "rolled out"
                } else {
                    "rolled back"
                }
            ),
        }
    }
}

/// An append-only log of engine events with a per-strategy index.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EventLog {
    events: Vec<EngineEvent>,
    /// Positions in `events` belonging to each strategy, in insertion order.
    by_strategy: BTreeMap<StrategyId, Vec<usize>>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: EngineEvent) {
        self.by_strategy
            .entry(event.strategy())
            .or_default()
            .push(self.events.len());
        self.events.push(event);
    }

    /// All events in insertion order.
    pub fn events(&self) -> &[EngineEvent] {
        &self.events
    }

    /// Events belonging to one strategy, in insertion order. Indexed: the
    /// cost is proportional to that strategy's events, not to the whole log.
    pub fn for_strategy(&self, strategy: StrategyId) -> impl Iterator<Item = &EngineEvent> {
        self.by_strategy
            .get(&strategy)
            .map(Vec::as_slice)
            .unwrap_or_default()
            .iter()
            .map(move |&i| &self.events[i])
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of state transitions recorded for a strategy.
    pub fn transitions_of(&self, strategy: StrategyId) -> usize {
        self.for_strategy(strategy)
            .filter(|e| matches!(e, EngineEvent::StateEntered { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<EngineEvent> {
        let s = StrategyId::new(1);
        vec![
            EngineEvent::StrategyScheduled {
                strategy: s,
                start_at: SimTime::from_secs(0),
            },
            EngineEvent::StrategyStarted {
                strategy: s,
                at: SimTime::from_secs(0),
            },
            EngineEvent::StateEntered {
                strategy: s,
                state: StateId::new(0),
                at: SimTime::from_secs(0),
            },
            EngineEvent::CheckExecuted {
                strategy: s,
                state: StateId::new(0),
                check: CheckId::new(0),
                success: true,
                at: SimTime::from_secs(12),
            },
            EngineEvent::StateEvaluated {
                strategy: s,
                state: StateId::new(0),
                outcome: 5,
                next: Some(StateId::new(1)),
                at: SimTime::from_secs(60),
            },
            EngineEvent::StrategyCompleted {
                strategy: s,
                final_state: StateId::new(1),
                success: true,
                at: SimTime::from_secs(61),
            },
        ]
    }

    #[test]
    fn event_accessors() {
        for event in sample_events() {
            assert_eq!(event.strategy(), StrategyId::new(1));
            assert!(!event.describe().is_empty());
        }
        let completed = sample_events().pop().unwrap();
        assert_eq!(completed.at(), SimTime::from_secs(61));
    }

    #[test]
    fn log_filters_by_strategy() {
        let mut log = EventLog::new();
        for event in sample_events() {
            log.push(event);
        }
        log.push(EngineEvent::StrategyStarted {
            strategy: StrategyId::new(2),
            at: SimTime::from_secs(5),
        });
        assert_eq!(log.len(), 7);
        assert!(!log.is_empty());
        assert_eq!(log.for_strategy(StrategyId::new(1)).count(), 6);
        assert_eq!(log.for_strategy(StrategyId::new(2)).count(), 1);
        assert_eq!(log.transitions_of(StrategyId::new(1)), 1);
        assert_eq!(log.events().len(), 7);
    }

    #[test]
    fn queue_pops_in_time_order_with_fifo_ties() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), "c");
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_batch([(SimTime::from_secs(1), "b"), (SimTime::from_secs(2), "x")]);
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.action).collect();
        // Same-instant entries fire in insertion order.
        assert_eq!(order, vec!["a", "b", "x", "c"]);
        assert_eq!(q.now(), SimTime::from_secs(3));
        assert_eq!(q.processed(), 4);
        assert!(q.is_empty());
    }

    #[test]
    fn queue_clamps_past_events_and_respects_deadlines() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), 1);
        q.pop();
        // Scheduled "in the past" relative to now = 10 s → fires at 10 s.
        q.schedule_at(SimTime::from_secs(2), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(10)));
        assert!(q.pop_until(SimTime::from_secs(5)).is_none());
        assert!(q.pop_until(SimTime::from_secs(10)).is_some());
        q.advance_to(SimTime::from_secs(99));
        assert_eq!(q.now(), SimTime::from_secs(99));
        assert!(format!("{q:?}").contains("pending"));
    }

    #[test]
    fn log_index_matches_linear_scan() {
        let mut log = EventLog::new();
        for strategy in [1u64, 2, 1, 3, 1, 2] {
            log.push(EngineEvent::StrategyStarted {
                strategy: StrategyId::new(strategy),
                at: SimTime::from_secs(strategy),
            });
        }
        for id in [1u64, 2, 3, 4] {
            let indexed: Vec<_> = log.for_strategy(StrategyId::new(id)).collect();
            let scanned: Vec<_> = log
                .events()
                .iter()
                .filter(|e| e.strategy() == StrategyId::new(id))
                .collect();
            assert_eq!(indexed, scanned);
        }
    }

    #[test]
    fn describe_mentions_rollback_vs_rollout() {
        let done = EngineEvent::StrategyCompleted {
            strategy: StrategyId::new(1),
            final_state: StateId::new(9),
            success: false,
            at: SimTime::from_secs(2),
        };
        assert!(done.describe().contains("rolled back"));
        let exception = EngineEvent::ExceptionTriggered {
            strategy: StrategyId::new(1),
            state: StateId::new(0),
            check: CheckId::new(3),
            fallback: StateId::new(9),
            at: SimTime::from_secs(2),
        };
        assert!(exception.describe().contains("falling back"));
    }
}
