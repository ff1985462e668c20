//! Deep Q-learning with experience replay and a target network
//! (Mnih et al. 2015, the paper's reference \[15\]).

use crate::env::{Env, StepResult, N_ACTIONS};
use crate::estimators::{EstimatorKind, QNetwork};
use treu_math::rng::{derive_seed, SplitMix64};
use treu_nn::layer::copy_params;

/// One replay transition.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// State observation.
    pub obs: Vec<f64>,
    /// Action taken.
    pub action: usize,
    /// Reward received.
    pub reward: f64,
    /// Next observation.
    pub next_obs: Vec<f64>,
    /// Whether the episode ended at `next_obs`.
    pub done: bool,
}

/// A bounded ring-buffer replay memory with uniform sampling.
#[derive(Debug, Default)]
pub struct ReplayBuffer {
    buf: Vec<Transition>,
    capacity: usize,
    head: usize,
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `capacity` transitions.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        Self { buf: Vec::with_capacity(capacity), capacity, head: 0 }
    }

    /// Stores a transition, evicting the oldest when full, and returns the
    /// slot (the index [`ReplayBuffer::get`] reads) it now occupies.
    pub fn push(&mut self, t: Transition) -> usize {
        if self.buf.len() < self.capacity {
            self.buf.push(t);
            self.buf.len() - 1
        } else {
            let slot = self.head;
            self.buf[slot] = t;
            self.head = (self.head + 1) % self.capacity;
            slot
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Draws `n` uniform random indices (with replacement) into `picks`,
    /// replacing its contents: a minibatch that borrows its transitions
    /// through [`ReplayBuffer::get`] instead of cloning them.
    pub fn sample_into(&self, n: usize, rng: &mut SplitMix64, picks: &mut Vec<usize>) {
        picks.clear();
        picks.extend((0..n).map(|_| rng.next_bounded(self.buf.len() as u64) as usize));
    }

    /// The transition at a sampled index.
    pub fn get(&self, index: usize) -> &Transition {
        &self.buf[index]
    }
}

/// DQN hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DqnConfig {
    /// Training episodes.
    pub episodes: usize,
    /// Replay capacity.
    pub replay_capacity: usize,
    /// Replay minibatch size (transitions per learning step).
    pub batch: usize,
    /// Discount factor.
    pub gamma: f64,
    /// Initial exploration rate.
    pub eps_start: f64,
    /// Final exploration rate.
    pub eps_end: f64,
    /// Target-network sync interval (environment steps).
    pub target_sync: usize,
    /// Estimator learning rate.
    pub lr: f64,
}

impl Default for DqnConfig {
    fn default() -> Self {
        Self {
            episodes: 400,
            replay_capacity: 2000,
            batch: 8,
            gamma: 0.95,
            eps_start: 1.0,
            eps_end: 0.05,
            target_sync: 50,
            lr: 0.005,
        }
    }
}

/// A DQN agent bound to an estimator family.
pub struct DqnAgent {
    online: QNetwork,
    target: QNetwork,
    replay: ReplayBuffer,
    /// The current minibatch's replay indices.
    picks: Vec<usize>,
    /// Per replay slot: the target network's max-Q of the slot's next
    /// observation, and the target generation it was computed in.
    target_max: Vec<(u64, f64)>,
    /// Bumped by every target sync, so older memo entries read as stale.
    /// Starts at 1; a slot's generation 0 means "never computed".
    target_generation: u64,
    config: DqnConfig,
    rng: SplitMix64,
    steps: usize,
    /// Total reward of each training episode (the learning curve).
    pub episode_rewards: Vec<f64>,
}

impl DqnAgent {
    /// Creates an agent with freshly initialized online/target networks.
    pub fn new(kind: EstimatorKind, config: DqnConfig, seed: u64) -> Self {
        let mut online = kind.build(config.lr, derive_seed(seed, "online"));
        let mut target = kind.build(config.lr, derive_seed(seed, "target"));
        copy_params(target.params(), online.params());
        Self {
            online,
            target,
            replay: ReplayBuffer::new(config.replay_capacity),
            picks: Vec::with_capacity(config.batch),
            target_max: vec![(0, 0.0); config.replay_capacity],
            target_generation: 1,
            config,
            rng: SplitMix64::new(derive_seed(seed, "agent")),
            steps: 0,
            episode_rewards: Vec::new(),
        }
    }

    fn epsilon(&self, episode: usize, total: usize) -> f64 {
        let t = episode as f64 / total.max(1) as f64;
        self.config.eps_start + (self.config.eps_end - self.config.eps_start) * t.min(1.0)
    }

    fn act(&mut self, obs: &[f64], eps: f64) -> usize {
        if self.rng.next_f64() < eps {
            self.rng.next_bounded(N_ACTIONS as u64) as usize
        } else {
            treu_math::vector::argmax(self.online.q_values(obs)).unwrap_or(0)
        }
    }

    fn learn(&mut self) {
        if self.replay.len() < self.config.batch {
            return;
        }
        // Sample indices first, then update from borrowed transitions.
        self.replay.sample_into(self.config.batch, &mut self.rng, &mut self.picks);
        for &i in &self.picks {
            let t = self.replay.get(i);
            let target = if t.done {
                t.reward
            } else {
                // The target network changes only at a sync, and its
                // forward pass reads only its parameters and the input, so
                // a slot drawn again within one sync window reuses its bits.
                let (generation, max_q) = &mut self.target_max[i];
                if *generation != self.target_generation {
                    let next_q = self.target.q_values(&t.next_obs);
                    *max_q = next_q.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    *generation = self.target_generation;
                }
                t.reward + self.config.gamma * *max_q
            };
            self.online.update(&t.obs, t.action, target);
        }
    }

    /// Trains against the environment; returns the mean reward of the last
    /// 20% of episodes (the converged estimate).
    pub fn train(&mut self, env: &mut dyn Env) -> f64 {
        let total = self.config.episodes;
        for ep in 0..total {
            let eps = self.epsilon(ep, total);
            let mut obs = env.reset(&mut self.rng);
            let mut ep_reward = 0.0;
            for _ in 0..env.horizon() {
                let action = self.act(&obs, eps);
                let StepResult { obs: next, reward, done } = env.step(action, &mut self.rng);
                ep_reward += reward;
                // The replay takes this state; `next` becomes the next one.
                // The slot it fills has no memoised max-Q for it yet.
                let transition = Transition { obs, action, reward, next_obs: next.clone(), done };
                self.target_max[self.replay.push(transition)].0 = 0;
                self.learn();
                self.steps += 1;
                if self.steps.is_multiple_of(self.config.target_sync) {
                    copy_params(self.target.params(), self.online.params());
                    self.target_generation += 1;
                }
                obs = next;
                if done {
                    break;
                }
            }
            self.episode_rewards.push(ep_reward);
        }
        // At least one episode, at most all of them: with none, the mean
        // of the empty tail is 0.0.
        let tail = (total / 5).max(1).min(total);
        treu_math::stats::mean(&self.episode_rewards[total - tail..])
    }

    /// Greedy evaluation over `episodes`, returning the mean total reward.
    pub fn evaluate(&mut self, env: &mut dyn Env, episodes: usize) -> f64 {
        let mut total = 0.0;
        for _ in 0..episodes {
            let mut obs = env.reset(&mut self.rng);
            for _ in 0..env.horizon() {
                let action = self.act(&obs, 0.0);
                let r = env.step(action, &mut self.rng);
                total += r.reward;
                obs = r.obs;
                if r.done {
                    break;
                }
            }
        }
        total / episodes.max(1) as f64
    }
}

/// A uniformly random policy's mean reward — the floor any trained agent
/// must clear.
pub fn random_policy_reward(env: &mut dyn Env, episodes: usize, seed: u64) -> f64 {
    let mut rng = SplitMix64::new(seed);
    let mut total = 0.0;
    for _ in 0..episodes {
        let mut _obs = env.reset(&mut rng);
        for _ in 0..env.horizon() {
            let r = env.step(rng.next_bounded(N_ACTIONS as u64) as usize, &mut rng);
            total += r.reward;
            if r.done {
                break;
            }
        }
    }
    total / episodes.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvKind;

    #[test]
    fn replay_buffer_evicts_oldest() {
        let mut rb = ReplayBuffer::new(2);
        let t = |r: f64| Transition {
            obs: vec![],
            action: 0,
            reward: r,
            next_obs: vec![],
            done: false,
        };
        assert_eq!(rb.push(t(1.0)), 0);
        assert_eq!(rb.push(t(2.0)), 1);
        assert_eq!(rb.push(t(3.0)), 0);
        assert_eq!(rb.len(), 2);
        assert_eq!(rb.get(0).reward, 3.0);
        let rewards: Vec<f64> = rb.buf.iter().map(|x| x.reward).collect();
        assert!(rewards.contains(&3.0));
        assert!(!rewards.contains(&1.0));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        ReplayBuffer::new(0);
    }

    #[test]
    fn dqn_learns_catch() {
        // Catch is the easiest env: a trained agent must clearly beat random.
        let mut env = EnvKind::Catch.build();
        let cfg = DqnConfig { episodes: 400, ..DqnConfig::default() };
        let mut agent = DqnAgent::new(EstimatorKind::Conv, cfg, 1);
        agent.train(env.as_mut());
        let trained = agent.evaluate(env.as_mut(), 40);
        let random = random_policy_reward(env.as_mut(), 40, 2);
        assert!(trained > random + 3.0, "trained {trained} must beat random {random}");
    }

    #[test]
    fn epsilon_schedule_decays() {
        let agent = DqnAgent::new(EstimatorKind::Conv, DqnConfig::default(), 3);
        assert!(agent.epsilon(0, 100) > agent.epsilon(50, 100));
        assert!((agent.epsilon(100, 100) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn training_is_deterministic() {
        let run = || {
            let mut env = EnvKind::Catch.build();
            let cfg = DqnConfig { episodes: 30, ..DqnConfig::default() };
            let mut agent = DqnAgent::new(EstimatorKind::Conv, cfg, 5);
            agent.train(env.as_mut());
            agent.episode_rewards.iter().map(|r| r.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn learning_curve_has_episode_per_entry() {
        let mut env = EnvKind::Frogger.build();
        let cfg = DqnConfig { episodes: 12, ..DqnConfig::default() };
        let mut agent = DqnAgent::new(EstimatorKind::Attention, cfg, 6);
        agent.train(env.as_mut());
        assert_eq!(agent.episode_rewards.len(), 12);
    }

    #[test]
    fn training_no_episodes_reports_a_zero_mean() {
        let mut env = EnvKind::Catch.build();
        let cfg = DqnConfig { episodes: 0, ..DqnConfig::default() };
        let mut agent = DqnAgent::new(EstimatorKind::Conv, cfg, 6);
        assert_eq!(agent.train(env.as_mut()), 0.0);
        assert!(agent.episode_rewards.is_empty());
    }
}
