//! The supervision core: a pool of worker *processes* and the policies
//! that keep it healthy.
//!
//! One manager thread per worker slot owns that slot's child process end
//! to end: spawn, ready-handshake, job dispatch, deadline enforcement,
//! kill-and-reap, and restart with exponential backoff. Jobs arrive
//! through [`Supervisor::submit`], pass admission control (drain state →
//! content cache → per-client limit → bounded queue), and are pulled by
//! whichever manager frees up first; the per-spec circuit breaker is
//! consulted at dispatch time so its state is as fresh as possible.
//!
//! Every terminal outcome is delivered exactly once through the job's
//! completion callback — the invariant the fault-injection suite pins:
//! no response is ever lost (a crashed attempt is retried up to
//! `max_attempts`, then reported as a [`JobOutcome::Failed`]) and none is
//! ever duplicated (the callback is `FnOnce` and consumed by whichever
//! path concludes the job).

use crate::backoff::Backoff;
use crate::breaker::{Admission, Breaker, BreakerState};
use crate::cache::ResultCache;
use crate::hash::{fnv128, fnv128_update};
use crate::protocol::{
    write_frame, JobErrorKind, JobMsg, JobOptions, JobVerdict, OverloadReason, WorkerMsg,
};
use splice_obs::json::JsonWriter;
use splice_obs::metrics::MetricsRegistry;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything tunable about the daemon, with production-shaped defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker processes (and manager threads) in the pool.
    pub workers: usize,
    /// Bounded global queue; submissions past this are shed.
    pub queue_cap: usize,
    /// Max jobs one client may have queued + running at once.
    pub per_client: usize,
    /// Per-attempt deadline; a worker past it is killed and the attempt
    /// counts as a failure.
    pub deadline: Duration,
    /// Consecutive failures of one content key before its breaker opens.
    pub breaker_threshold: u32,
    /// How long an open breaker fast-fails before admitting a probe.
    pub breaker_cooldown: Duration,
    /// Total attempts per job before it is reported failed.
    pub max_attempts: u32,
    /// First non-zero restart delay in the backoff series.
    pub backoff_base_ms: u64,
    /// Ceiling of the backoff series.
    pub backoff_cap_ms: u64,
    /// Verdicts retained by the content cache (0 disables).
    pub cache_cap: usize,
    /// Worker command line; empty means `current_exe --worker`.
    pub worker_cmd: Vec<String>,
    /// `SPLICE_FAULT` plan passed to workers (tests only).
    pub fault: Option<String>,
    /// Seed decorrelating backoff jitter and worker fault streams.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_cap: 256,
            per_client: 64,
            deadline: Duration::from_millis(10_000),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(5_000),
            max_attempts: 3,
            backoff_base_ms: 50,
            backoff_cap_ms: 2_000,
            cache_cap: 1024,
            worker_cmd: Vec::new(),
            fault: None,
            seed: 0x0051_713c_e000,
        }
    }
}

/// The terminal outcome of one submitted job, delivered exactly once.
#[derive(Debug)]
pub enum JobOutcome {
    /// A deterministic verdict (fresh or from the cache).
    Verdict {
        /// The verdict.
        verdict: JobVerdict,
        /// Served from the cache without touching a worker.
        cached: bool,
        /// Worker attempts consumed (0 for cache hits).
        attempts: u32,
        /// Wall milliseconds from submit to completion.
        elapsed_ms: u64,
    },
    /// All attempts were lost to crashes/timeouts, or the breaker or
    /// supervisor refused to run the job.
    Failed {
        /// Failure class.
        kind: JobErrorKind,
        /// Human-readable detail.
        message: String,
        /// Worker attempts consumed.
        attempts: u32,
    },
    /// Shed at admission.
    Shed {
        /// Which limit fired.
        reason: OverloadReason,
        /// Queue depth at refusal.
        queue_depth: u64,
    },
}

type DoneFn = Box<dyn FnOnce(JobOutcome) + Send + 'static>;

struct Job {
    key: u128,
    client: u64,
    spec: String,
    options: JobOptions,
    attempts: u32,
    enqueued: Instant,
    done: DoneFn,
}

struct State {
    queue: VecDeque<Job>,
    draining: bool,
    breakers: HashMap<u128, Breaker>,
    cache: ResultCache,
    inflight: HashMap<u64, usize>,
    running: usize,
}

struct Inner {
    config: ServeConfig,
    state: Mutex<State>,
    cv: Condvar,
    metrics: Mutex<MetricsRegistry>,
    workers_alive: AtomicU64,
    worker_pids: Mutex<Vec<u64>>,
    job_seq: AtomicU64,
}

/// The supervisor: owns the worker pool and the admission pipeline.
pub struct Supervisor {
    inner: Arc<Inner>,
    managers: Mutex<Vec<JoinHandle<()>>>,
}

impl Supervisor {
    /// Start the manager threads (workers spawn lazily inside them).
    pub fn start(config: ServeConfig) -> Supervisor {
        let mut metrics = MetricsRegistry::new();
        metrics.enable();
        let workers = config.workers.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                draining: false,
                breakers: HashMap::new(),
                cache: ResultCache::new(config.cache_cap),
                inflight: HashMap::new(),
                running: 0,
            }),
            cv: Condvar::new(),
            metrics: Mutex::new(metrics),
            workers_alive: AtomicU64::new(0),
            worker_pids: Mutex::new(vec![0; workers]),
            job_seq: AtomicU64::new(1),
            config,
        });
        let managers = (0..workers)
            .map(|slot| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{slot}"))
                    .spawn(move || manager_loop(&inner, slot))
                    .expect("spawn manager thread")
            })
            .collect();
        Supervisor { inner, managers: Mutex::new(managers) }
    }

    /// Submit a job. `done` fires exactly once with the outcome — possibly
    /// synchronously (cache hit, shed) from the calling thread.
    pub fn submit<F>(&self, client: u64, spec: String, options: JobOptions, done: F)
    where
        F: FnOnce(JobOutcome) + Send + 'static,
    {
        let key = fnv128_update(fnv128(spec.as_bytes()), options.canonical().as_bytes());
        enum Decision {
            Queued(u64),
            Refused(JobOutcome),
        }
        let mut done_slot = Some(done);
        let decision = {
            let mut st = self.inner.state.lock().expect("serve state");
            let depth = st.queue.len() as u64;
            if st.draining {
                Decision::Refused(JobOutcome::Shed {
                    reason: OverloadReason::Draining,
                    queue_depth: depth,
                })
            } else if let Some(verdict) = st.cache.get(key) {
                Decision::Refused(JobOutcome::Verdict {
                    verdict,
                    cached: true,
                    attempts: 0,
                    elapsed_ms: 0,
                })
            } else if st.inflight.get(&client).copied().unwrap_or(0) >= self.inner.config.per_client
            {
                Decision::Refused(JobOutcome::Shed {
                    reason: OverloadReason::ClientLimit,
                    queue_depth: depth,
                })
            } else if st.queue.len() >= self.inner.config.queue_cap {
                Decision::Refused(JobOutcome::Shed {
                    reason: OverloadReason::QueueFull,
                    queue_depth: depth,
                })
            } else {
                *st.inflight.entry(client).or_insert(0) += 1;
                st.queue.push_back(Job {
                    key,
                    client,
                    spec,
                    options,
                    attempts: 0,
                    enqueued: Instant::now(),
                    done: Box::new(done_slot.take().expect("submit callback")),
                });
                Decision::Queued(st.queue.len() as u64)
            }
        };
        match decision {
            Decision::Queued(depth) => {
                self.inner.cv.notify_one();
                self.inner.metric(|m| {
                    m.counter_add("serve.jobs.submitted", 1);
                    m.gauge_set("serve.queue.depth", depth);
                });
            }
            Decision::Refused(outcome) => {
                self.inner.metric(|m| match &outcome {
                    JobOutcome::Verdict { .. } => m.counter_add("serve.cache.served", 1),
                    JobOutcome::Shed { .. } => m.counter_add("serve.jobs.shed", 1),
                    JobOutcome::Failed { .. } => {}
                });
                (done_slot.take().expect("submit callback"))(outcome);
            }
        }
    }

    /// Worker processes currently alive.
    pub fn workers_alive(&self) -> u64 {
        self.inner.workers_alive.load(Ordering::Relaxed)
    }

    /// Live worker pids by slot (0 = slot currently empty).
    pub fn worker_pids(&self) -> Vec<u64> {
        self.inner.worker_pids.lock().expect("pids").clone()
    }

    /// Is the supervisor draining?
    pub fn is_draining(&self) -> bool {
        self.inner.state.lock().expect("serve state").draining
    }

    /// Stop admitting jobs; queued and running jobs still complete.
    pub fn drain(&self) {
        self.inner.state.lock().expect("serve state").draining = true;
        self.inner.cv.notify_all();
    }

    /// Wait for every manager thread (and thus every worker) to exit.
    /// Meaningful only after [`drain`](Self::drain); takes `&self` so a
    /// shared supervisor (behind `Arc`) can still be joined.
    pub fn join(&self) {
        let handles: Vec<JoinHandle<()>> =
            self.managers.lock().expect("managers").drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// The status document served to `status` requests (see
    /// `docs/serve.md` for the schema).
    pub fn status_json(&self) -> String {
        let now = Instant::now();
        let (depth, running, draining, cache_len, hits, misses, b_total, b_open) = {
            let mut st = self.inner.state.lock().expect("serve state");
            let open = st
                .breakers
                .values_mut()
                .map(|b| b.state(now))
                .filter(|s| *s != BreakerState::Closed)
                .count();
            let (hits, misses) = st.cache.stats();
            (
                st.queue.len() as u64,
                st.running as u64,
                st.draining,
                st.cache.len() as u64,
                hits,
                misses,
                st.breakers.len() as u64,
                open as u64,
            )
        };
        let pids = self.worker_pids();
        let alive = self.workers_alive();
        let (p50, p99, metrics_json) = {
            let mut m = self.inner.metrics.lock().expect("metrics");
            m.gauge_set("serve.workers.alive", alive);
            m.gauge_set("serve.queue.depth", depth);
            let (p50, p99) = m
                .histogram("serve.job.latency_ms")
                .map(|h| (h.quantile(0.5), h.quantile(0.99)))
                .unwrap_or((0, 0));
            (p50, p99, m.to_json())
        };
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("workers").begin_array();
        for pid in &pids {
            w.number_u64(*pid);
        }
        w.end_array();
        w.field_u64("workers_alive", alive);
        w.key("draining").boolean(draining);
        w.field_u64("queue_depth", depth);
        w.field_u64("running", running);
        w.key("cache").begin_object();
        w.field_u64("entries", cache_len).field_u64("hits", hits).field_u64("misses", misses);
        w.end_object();
        w.key("breakers").begin_object();
        w.field_u64("total", b_total).field_u64("open", b_open);
        w.end_object();
        w.key("latency_ms").begin_object();
        w.field_u64("p50", p50).field_u64("p99", p99);
        w.end_object();
        w.key("metrics").raw(&metrics_json);
        w.end_object();
        w.finish()
    }

    /// Read a counter out of the supervisor's registry (tests).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.metrics.lock().expect("metrics").counter(name)
    }
}

impl Inner {
    fn metric(&self, f: impl FnOnce(&mut MetricsRegistry)) {
        f(&mut self.metrics.lock().expect("metrics"));
    }

    /// True once draining has been requested and the queue is empty — the
    /// manager-thread exit condition.
    fn drained(&self) -> bool {
        let st = self.state.lock().expect("serve state");
        st.draining && st.queue.is_empty()
    }

    /// Block for the next job. `None` means drain: queue empty and no new
    /// admissions possible.
    fn pop_job(&self) -> Option<Job> {
        let mut st = self.state.lock().expect("serve state");
        loop {
            if let Some(job) = st.queue.pop_front() {
                st.running += 1;
                let depth = st.queue.len() as u64;
                drop(st);
                self.metric(|m| m.gauge_set("serve.queue.depth", depth));
                return Some(job);
            }
            if st.draining {
                return None;
            }
            let (guard, _timeout) =
                self.cv.wait_timeout(st, Duration::from_millis(100)).expect("serve state");
            st = guard;
        }
    }

    /// Breaker admission for one content key at dispatch time. Only keys
    /// that failed since their last success have a breaker; a missing one
    /// behaves as a fresh closed breaker.
    fn admit(&self, key: u128, now: Instant) -> Admission {
        let mut st = self.state.lock().expect("serve state");
        st.breakers.get_mut(&key).map_or(Admission::Allow, |b| b.admit(now))
    }

    /// A worker attempt produced a deterministic verdict.
    fn finish_ok(&self, job: Job, verdict: JobVerdict) {
        let elapsed_ms = job.enqueued.elapsed().as_millis() as u64;
        {
            let mut st = self.state.lock().expect("serve state");
            st.running -= 1;
            // A success leaves the key's breaker closed with no failures,
            // which is what a missing breaker means: drop it, so the map
            // holds only keys with a failure streak or an open breaker.
            st.breakers.remove(&job.key);
            st.cache.insert(job.key, verdict.clone());
            release_client(&mut st.inflight, job.client);
        }
        self.metric(|m| {
            m.counter_add("serve.jobs.completed", 1);
            m.observe("serve.job.latency_ms", elapsed_ms);
        });
        (job.done)(JobOutcome::Verdict {
            verdict,
            cached: false,
            attempts: job.attempts + 1,
            elapsed_ms,
        });
    }

    /// A worker attempt was lost (crash or deadline kill): record the
    /// breaker failure, then retry or conclude.
    fn worker_failed(&self, mut job: Job, kind: JobErrorKind, message: &str) {
        let now = Instant::now();
        let tripped = {
            let mut st = self.state.lock().expect("serve state");
            st.running -= 1;
            let threshold = self.config.breaker_threshold;
            let cooldown = self.config.breaker_cooldown;
            let b = st.breakers.entry(job.key).or_insert_with(|| Breaker::new(threshold, cooldown));
            let before = b.trips();
            b.record_failure(now);
            b.trips() > before
        };
        if tripped {
            self.metric(|m| m.counter_add("serve.breaker.trips", 1));
        }
        job.attempts += 1;
        if job.attempts < self.config.max_attempts {
            self.metric(|m| m.counter_add("serve.jobs.retries", 1));
            let mut st = self.state.lock().expect("serve state");
            st.queue.push_front(job);
            drop(st);
            self.cv.notify_one();
            return;
        }
        let attempts = job.attempts;
        self.conclude_failed(job, kind, message.to_owned(), attempts, false);
    }

    /// Deliver a terminal failure. `popped` marks whether the job was
    /// counted into `running` (dispatch-time refusals) or never left the
    /// queue accounting path.
    fn conclude_failed(
        &self,
        job: Job,
        kind: JobErrorKind,
        message: String,
        attempts: u32,
        popped: bool,
    ) {
        {
            let mut st = self.state.lock().expect("serve state");
            if popped {
                st.running -= 1;
            }
            release_client(&mut st.inflight, job.client);
        }
        self.metric(|m| {
            m.counter_add("serve.jobs.failed", 1);
            if kind == JobErrorKind::BreakerOpen {
                m.counter_add("serve.breaker.fastfails", 1);
            }
        });
        (job.done)(JobOutcome::Failed { kind, message, attempts });
    }

    /// Fail every queued job (the pool cannot run anything — e.g. the
    /// worker binary is gone). Keeps clients from waiting forever on an
    /// environment that will not heal.
    fn fail_all_queued(&self, why: &str) {
        let jobs: Vec<Job> = {
            let mut st = self.state.lock().expect("serve state");
            let drained: Vec<Job> = st.queue.drain(..).collect();
            for job in &drained {
                release_client(&mut st.inflight, job.client);
            }
            drained
        };
        if jobs.is_empty() {
            return;
        }
        let n = jobs.len() as u64;
        self.metric(|m| {
            m.counter_add("serve.jobs.failed", n);
            m.gauge_set("serve.queue.depth", 0);
        });
        for job in jobs {
            let attempts = job.attempts;
            (job.done)(JobOutcome::Failed {
                kind: JobErrorKind::Internal,
                message: format!("worker pool unavailable: {why}"),
                attempts,
            });
        }
    }

    fn worker_up(&self, slot: usize, pid: u64) {
        self.worker_pids.lock().expect("pids")[slot] = pid;
        let alive = self.workers_alive.fetch_add(1, Ordering::Relaxed) + 1;
        self.metric(|m| m.gauge_set("serve.workers.alive", alive));
    }

    fn worker_down(&self, slot: usize) {
        self.worker_pids.lock().expect("pids")[slot] = 0;
        let alive = self.workers_alive.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
        self.metric(|m| m.gauge_set("serve.workers.alive", alive));
    }
}

fn release_client(inflight: &mut HashMap<u64, usize>, client: u64) {
    if let Some(n) = inflight.get_mut(&client) {
        *n = n.saturating_sub(1);
        if *n == 0 {
            inflight.remove(&client);
        }
    }
}

// ---------------------------------------------------------------------------
// The per-slot manager thread.
// ---------------------------------------------------------------------------

struct WorkerProc {
    child: Child,
    stdin: ChildStdin,
    rx: Receiver<WorkerMsg>,
    pid: u64,
}

impl WorkerProc {
    fn spawn(config: &ServeConfig, slot: usize, restarts: u64) -> io::Result<WorkerProc> {
        let cmd: Vec<String> = if config.worker_cmd.is_empty() {
            let exe = std::env::current_exe()?;
            vec![exe.to_string_lossy().into_owned(), "--worker".into()]
        } else {
            config.worker_cmd.clone()
        };
        let mut c = Command::new(&cmd[0]);
        c.args(&cmd[1..]).stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(Stdio::inherit());
        // Fault plans reach workers only through explicit config, never by
        // env inheritance — the daemon itself may run under SPLICE_FAULT
        // in the test harness without poisoning its children twice.
        c.env_remove("SPLICE_FAULT");
        if let Some(fault) = &config.fault {
            c.env("SPLICE_FAULT", fault);
        }
        let seed =
            config.seed ^ ((slot as u64 + 1).wrapping_mul(0x9e37_79b9)) ^ restarts.wrapping_mul(97);
        c.env("SPLICE_FAULT_SEED", seed.to_string());
        let mut child = c.spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let mut stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        // Reader thread: turns the pipe into timed-out-able messages. It
        // exits when the pipe closes (child death or our kill).
        std::thread::Builder::new()
            .name(format!("serve-reader-{slot}"))
            .spawn(move || {
                while let Ok(Some(payload)) = crate::protocol::read_frame(&mut stdout) {
                    let Ok(msg) = WorkerMsg::parse(&payload) else { break };
                    if tx.send(msg).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn reader thread");
        let pid = u64::from(child.id());
        Ok(WorkerProc { child, stdin, rx, pid })
    }

    /// Hard-stop the child and reap the zombie.
    fn kill_reap(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Close stdin (EOF = orderly shutdown request) and wait for exit.
    fn close_and_wait(self) {
        let WorkerProc { mut child, stdin, rx, .. } = self;
        drop(stdin);
        drop(rx);
        let _ = child.wait();
    }
}

/// Why the current worker has to be replaced, and what to do with the job
/// it was holding.
enum WorkerDeath {
    /// Worker vanished before accepting the job (write failed).
    WriteFailed(Job),
    /// Worker process died mid-job.
    Crashed(Job),
    /// Job blew the deadline; worker presumed hung.
    DeadlineKill(Job),
}

fn manager_loop(inner: &Arc<Inner>, slot: usize) {
    let mut backoff = Backoff::new(
        inner.config.backoff_base_ms,
        inner.config.backoff_cap_ms,
        inner.config.seed ^ ((slot as u64 + 1).wrapping_mul(0x1000_0001)),
    );
    let mut restarts: u64 = 0;
    // Consecutive spawn/handshake failures: a slot that cannot even get a
    // worker to say hello. Mid-job deaths do NOT count — those are what
    // the retry budget and breaker are for.
    let mut boot_failures: u32 = 0;
    loop {
        if inner.drained() {
            return;
        }
        // Restart pacing: the first spawn (and the first spawn after a
        // completed job) is immediate; repeated deaths back off.
        let delay = backoff.next_delay();
        if !sleep_unless_drained(inner, delay) {
            return;
        }
        let mut worker = match WorkerProc::spawn(&inner.config, slot, restarts) {
            Ok(w) => w,
            Err(e) => {
                boot_failures += 1;
                inner.metric(|m| m.counter_add("serve.worker.spawn_failures", 1));
                // A pool that cannot start a worker must not strand
                // clients: past a few consecutive failures, fail what is
                // queued (and keep trying to spawn).
                if boot_failures > 2 {
                    inner.fail_all_queued(&e.to_string());
                }
                continue;
            }
        };
        restarts += 1;
        inner.metric(|m| {
            m.counter_add("serve.worker.spawns", 1);
            if restarts > 1 {
                m.counter_add("serve.worker.restarts", 1);
            }
        });
        // Ready handshake: a worker that cannot even say hello within the
        // deadline is dead on arrival.
        match worker.rx.recv_timeout(inner.config.deadline) {
            Ok(WorkerMsg::Ready { .. }) => boot_failures = 0,
            _ => {
                boot_failures += 1;
                worker.kill_reap();
                if boot_failures > 4 {
                    inner.fail_all_queued(&format!("worker slot {slot} cannot be restarted"));
                }
                continue;
            }
        }
        inner.worker_up(slot, worker.pid);

        let death = run_jobs_on(inner, &mut worker, &mut backoff);
        match death {
            None => {
                // Drain: EOF the worker and exit this slot for good.
                worker.close_and_wait();
                inner.worker_down(slot);
                return;
            }
            Some(WorkerDeath::DeadlineKill(job)) => {
                inner.metric(|m| m.counter_add("serve.worker.deadline_kills", 1));
                worker.kill_reap();
                inner.worker_down(slot);
                inner.worker_failed(
                    job,
                    JobErrorKind::Timeout,
                    &format!("job exceeded the {}ms deadline", inner.config.deadline.as_millis()),
                );
            }
            Some(WorkerDeath::Crashed(job) | WorkerDeath::WriteFailed(job)) => {
                worker.kill_reap();
                inner.worker_down(slot);
                inner.worker_failed(job, JobErrorKind::Crashed, "worker process died mid-job");
            }
        }
    }
}

/// Feed jobs to one live worker until it dies or the pool drains.
/// `None` = drain; `Some(death)` = replace the worker. Every completed
/// job resets the restart backoff — only *consecutive* deaths back off.
fn run_jobs_on(
    inner: &Arc<Inner>,
    worker: &mut WorkerProc,
    backoff: &mut Backoff,
) -> Option<WorkerDeath> {
    loop {
        let job = inner.pop_job()?;
        match inner.admit(job.key, Instant::now()) {
            Admission::Allow | Admission::Probe => {}
            Admission::FastFail => {
                let attempts = job.attempts;
                inner.conclude_failed(
                    job,
                    JobErrorKind::BreakerOpen,
                    format!(
                        "circuit breaker open for this spec (cooldown {}ms)",
                        inner.config.breaker_cooldown.as_millis()
                    ),
                    attempts,
                    true,
                );
                continue;
            }
        }
        let seq = inner.job_seq.fetch_add(1, Ordering::Relaxed);
        let frame = JobMsg { job: seq, spec: job.spec.clone(), options: job.options }.render();
        if write_frame(&mut worker.stdin, &frame).is_err() {
            return Some(WorkerDeath::WriteFailed(job));
        }
        let deadline_at = Instant::now() + inner.config.deadline;
        loop {
            let remaining = deadline_at.saturating_duration_since(Instant::now());
            match worker.rx.recv_timeout(remaining) {
                Ok(WorkerMsg::Done { job: done_seq, verdict }) if done_seq == seq => {
                    inner.finish_ok(job, verdict);
                    backoff.reset();
                    break;
                }
                // Stale or duplicate frame (a previous worker's residue
                // cannot appear — channels are per-child — but a buggy
                // worker double-send must not double-complete the job).
                Ok(_) => continue,
                Err(RecvTimeoutError::Timeout) => return Some(WorkerDeath::DeadlineKill(job)),
                Err(RecvTimeoutError::Disconnected) => return Some(WorkerDeath::Crashed(job)),
            }
        }
    }
}

/// Sleep `d`, waking early (returning false) if the pool fully drained.
fn sleep_unless_drained(inner: &Arc<Inner>, d: Duration) -> bool {
    let mut left = d;
    while !left.is_zero() {
        if inner.drained() {
            return false;
        }
        let step = left.min(Duration::from_millis(20));
        std::thread::sleep(step);
        left = left.saturating_sub(step);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn config_defaults_are_sane() {
        let c = ServeConfig::default();
        assert!(c.workers >= 1);
        assert!(c.queue_cap >= c.workers);
        assert!(c.max_attempts >= 1);
        assert!(c.backoff_cap_ms >= c.backoff_base_ms);
    }

    /// A pool whose worker binary does not exist must fail queued jobs
    /// (with Internal) instead of stranding clients forever.
    #[test]
    fn missing_worker_binary_fails_jobs_instead_of_hanging() {
        let config = ServeConfig {
            workers: 1,
            backoff_base_ms: 1,
            backoff_cap_ms: 4,
            worker_cmd: vec!["/nonexistent/splice-worker-binary".into()],
            ..ServeConfig::default()
        };
        let sup = Supervisor::start(config);
        let (tx, rx) = channel();
        sup.submit(1, "%device_name d\n".into(), JobOptions::default(), move |out| {
            tx.send(out).unwrap();
        });
        let out = rx.recv_timeout(Duration::from_secs(10)).expect("job concluded");
        match out {
            JobOutcome::Failed { kind: JobErrorKind::Internal, .. } => {}
            other => panic!("expected Internal failure, got {other:?}"),
        }
        assert!(sup.counter("serve.worker.spawn_failures") > 0);
        sup.drain();
        sup.join();
    }

    /// Draining refuses new work explicitly.
    #[test]
    fn draining_sheds_new_submissions() {
        let config = ServeConfig {
            workers: 1,
            worker_cmd: vec!["/nonexistent/worker".into()],
            backoff_base_ms: 1,
            ..ServeConfig::default()
        };
        let sup = Supervisor::start(config);
        sup.drain();
        let (tx, rx) = channel();
        sup.submit(1, "spec".into(), JobOptions::default(), move |out| {
            tx.send(out).unwrap();
        });
        match rx.recv_timeout(Duration::from_secs(2)).unwrap() {
            JobOutcome::Shed { reason: OverloadReason::Draining, .. } => {}
            other => panic!("expected Draining shed, got {other:?}"),
        }
        sup.join();
    }
}
