//! Micro-batch coalescing: many clients' testbenches, one forward pass.
//!
//! Each served model owns one batcher thread. Incoming `sim` requests are
//! queued; the batcher sleeps until the first job arrives, then keeps
//! admitting jobs until either `max_batch` lanes have accumulated or the
//! `max_wait` deadline (measured from the first queued job) expires —
//! classic dynamic batching, with the batch then executed as one
//! HAL-runner pass per cycle over all lanes. Per-lane outputs scatter
//! back through each job's reply channel; a lane whose client vanished
//! mid-batch just has its reply dropped on the floor — the other lanes are
//! independent columns of the forward pass and are unaffected. A job is one
//! [`CycleRows`] testbench in and one out: which wire shape or codec a
//! request arrived in ends in [`Connection`](crate::Connection), and
//! nothing here branches on it.
//!
//! Which execution engine steps the batch is decided *before* the batcher
//! thread exists: the registry resolves the configured
//! [`Choice`](c2nn_hal::Choice) against the [`c2nn_hal::BackendRegistry`]
//! at install time, producing an admitted [`Plan`](c2nn_hal::Plan) (with
//! typed rejection for models a backend cannot legalize). The batcher just
//! manufactures runners from its plan — it never knows which backend it
//! is running.
//!
//! The window is *first-job anchored*: the first request in a batch waits
//! at most `max_wait` beyond its arrival, so a lone client's latency floor
//! is `max_wait` (tune it near zero for latency, milliseconds for
//! throughput). It is also consulted *before* the queue is: a job picked up
//! after its window has closed — it sat behind the previous batch for longer
//! than `max_wait` — is dispatched at once with the one lane it holds,
//! however many jobs are queued behind it. Under sustained load that state
//! is absorbing (the benchmark's `coalesce_burst`: 64 jobs outstanding,
//! `serve.scheduler.occupancy` 1.00). The known remedy is to take what is
//! already queued (`try_recv` up to `max_batch`) and let the window bound
//! only the *waiting*; ROADMAP item 1 records why it has not landed.
//!
//! ## Overload behavior
//!
//! * Under [`Pressure::Elevated`] the coalescing window widens
//!   ([`PRESSURE_WAIT_FACTOR`]×): per-request latency is already shot, so
//!   the scheduler buys goodput with bigger batches instead.
//! * A job carrying a client deadline that expires before batch dispatch
//!   is shed with a typed [`SimFailure::DeadlineExceeded`] — its lane never
//!   occupies the forward pass.
//! * A panic during the batched forward pass (e.g. a pool worker dying) is
//!   caught: every lane in the batch gets a typed failure, the runner is
//!   rebuilt from the plan, and the batcher thread survives to serve the
//!   next batch — the pool respawns its worker on the next job
//!   ([`c2nn_tensor::Pool`] self-healing).
//! * An armed [`Chaos`] schedule injects scheduler stalls and worker
//!   panics here, exercising exactly these paths under a fixed seed.

use crate::admission::{Admission, Pressure};
use crate::chaos::Chaos;
use crate::protocol::ModelStatsReport;
use crate::stats::ModelCounters;
use c2nn_core::{CompiledNn, CycleRows};
use c2nn_hal::{BackendRegistry, Choice, DeviceCalibration, Plan, RaggedBatch, Runner, Selection};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How much the coalescing window widens at [`Pressure::Elevated`] and
/// above: latency is already dominated by queueing, so trade it for batch
/// occupancy (= goodput).
pub const PRESSURE_WAIT_FACTOR: u32 = 4;

/// Tuning for one model's micro-batcher.
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Maximum lanes coalesced into one simulator run.
    pub max_batch: usize,
    /// How long the first queued request may wait for companions.
    pub max_wait: Duration,
    /// Execution backend, resolved against the [`BackendRegistry`] at
    /// install time. [`Choice::Auto`] lets the cost model pick per model;
    /// [`Choice::Named`] pins one backend and turns its admission refusal
    /// into a typed install error.
    pub backend: Choice,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 64,
            max_wait: Duration::from_millis(2),
            backend: Choice::Auto,
        }
    }
}

/// One testbench's recorded outputs, as many cycles as its stimulus had.
pub use c2nn_hal::SimOutput;

/// Why a submitted job did not produce outputs. Every variant maps to a
/// typed wire reply — overload and failure are contracts, not strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimFailure {
    /// The job's client deadline passed before batch dispatch; the lane
    /// was shed without simulating.
    DeadlineExceeded,
    /// The server is draining; the job was not executed.
    ShuttingDown,
    /// The batched simulation failed (simulator error or a worker panic).
    Failed(String),
}

impl std::fmt::Display for SimFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimFailure::DeadlineExceeded => write!(f, "deadline exceeded before dispatch"),
            SimFailure::ShuttingDown => write!(f, "server shutting down"),
            SimFailure::Failed(msg) => write!(f, "batched simulation failed: {msg}"),
        }
    }
}

/// Where a finished job's result goes: run once, on the batcher thread.
type ReplyHook = Box<dyn FnOnce(Result<SimOutput, SimFailure>) + Send>;

struct SimJob {
    stim: CycleRows,
    reply: ReplyHook,
    enqueued: Instant,
    /// Absolute client deadline; `None` means "whenever".
    deadline: Option<Instant>,
}

/// A model admitted to the registry: the validated network, the backend
/// selection that admitted it, its byte accounting, its counters, and the
/// sending side of its batcher queue. Dropping the last
/// `Arc<ServedModel>` closes the queue and the batcher thread exits.
pub struct ServedModel {
    /// Registry key.
    pub name: String,
    /// The compiled, validated network.
    pub nn: Arc<CompiledNn<f32>>,
    /// Name of the backend executing this model's batches.
    pub backend: String,
    /// Whether the cost model picked the backend (`--backend auto`) or
    /// the operator named it.
    pub auto_selected: bool,
    /// The cost model's predicted lane-cycles/s at `max_batch`, when the
    /// selection had a calibration entry for the backend.
    pub predicted_lane_cps: Option<f64>,
    /// Size counted against the registry byte budget.
    pub bytes: usize,
    /// Serving counters (shared with the batcher thread).
    pub stats: Arc<ModelCounters>,
    queue: Sender<SimJob>,
}

impl std::fmt::Debug for ServedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServedModel")
            .field("name", &self.name)
            .field("backend", &self.backend)
            .field("bytes", &self.bytes)
            .finish_non_exhaustive()
    }
}

impl ServedModel {
    /// Wrap an already-resolved backend [`Selection`] and spawn the
    /// model's batcher thread. `admission` feeds the pressure signal that
    /// widens the coalescing window; `chaos`, if armed, injects stalls
    /// and worker panics into this batcher.
    pub fn spawn(
        name: &str,
        selection: Selection,
        cfg: BatchConfig,
        admission: Arc<Admission>,
        chaos: Option<Arc<Chaos>>,
    ) -> Arc<ServedModel> {
        let Selection {
            backend,
            auto,
            plan,
            predicted_lane_cps,
            ..
        } = selection;
        let nn = Arc::clone(plan.nn());
        let bytes = nn.memory_bytes();
        let stats = Arc::new(ModelCounters::default());
        let (tx, rx) = mpsc::channel::<SimJob>();
        {
            let plan = Arc::clone(&plan);
            let stats = Arc::clone(&stats);
            let thread_name = format!("c2nn-batch-{name}");
            std::thread::Builder::new()
                .name(thread_name)
                .spawn(move || batch_loop(rx, plan, &stats, &cfg, &admission, chaos.as_deref()))
                .expect("spawn batcher thread");
        }
        Arc::new(ServedModel {
            name: name.to_string(),
            nn,
            backend,
            auto_selected: auto,
            predicted_lane_cps,
            bytes,
            stats,
            queue: tx,
        })
    }

    /// Resolve `cfg.backend` against the global [`BackendRegistry`] and
    /// its built-in cost table at `cfg.max_batch` lanes, and spawn. This
    /// is the install-time gate: a model no backend can run is refused
    /// here with a typed reason, not discovered by a batcher thread later.
    pub fn spawn_selected(
        name: &str,
        nn: CompiledNn<f32>,
        cfg: BatchConfig,
        admission: Arc<Admission>,
        chaos: Option<Arc<Chaos>>,
    ) -> Result<Arc<ServedModel>, c2nn_hal::SelectError> {
        let nn = Arc::new(nn);
        let table = DeviceCalibration::default_host(c2nn_tensor::Pool::global().threads());
        let selection =
            BackendRegistry::global().select(&nn, &cfg.backend, &table, cfg.max_batch)?;
        Ok(ServedModel::spawn(name, selection, cfg, admission, chaos))
    }

    /// [`ServedModel::spawn_selected`] with no pressure coupling and no
    /// chaos — embedding and test convenience. Panics if no backend admits
    /// the model (use [`ServedModel::spawn_selected`] for typed errors).
    pub fn spawn_standalone(name: &str, nn: CompiledNn<f32>, cfg: BatchConfig) -> Arc<ServedModel> {
        ServedModel::spawn_selected(name, nn, cfg, Admission::unbounded(), None)
            .expect("backend selection")
    }

    /// Snapshot this model's counters into the wire-format report.
    pub fn report(&self) -> ModelStatsReport {
        self.stats
            .report(&self.name, self.bytes, &self.backend, self.auto_selected)
    }

    /// Enqueue one testbench — [`CycleRows`], or an edge shape that
    /// converts into them here, once: a parsed
    /// [`Stimulus`](c2nn_core::Stimulus) or wire planes (`inputs × cycles`)
    /// — already width-checked against `nn.num_primary_inputs` (the batch
    /// driver refuses a wrong-width stimulus typed, failing the batch it
    /// was coalesced into) and return the channel its result will arrive
    /// on. The caller blocks on `recv()` for as long as it likes — or
    /// drops the receiver to abandon the request. A `deadline` in the past
    /// is legal: the scheduler sheds the lane with a typed reply. A
    /// torn-down batcher yields `Err(SimFailure::ShuttingDown)` on the
    /// channel, not a disconnected receiver.
    pub fn submit(
        &self,
        stim: impl Into<CycleRows>,
        deadline: Option<Instant>,
    ) -> Receiver<Result<SimOutput, SimFailure>> {
        let (tx, rx) = mpsc::channel();
        // a vanished receiver is a client that gave up: drop the reply
        let hook = move |result| drop(tx.send(result));
        self.submit_with(stim, deadline, Box::new(hook));
        rx
    }

    /// Enqueue one testbench with a completion hook: the hook runs on the
    /// batcher thread when the result is ready, so it must never block
    /// (the connection drivers' hook pushes onto a queue and wakes the
    /// I/O thread).
    ///
    /// The hook is guaranteed to run exactly once: a batcher that has
    /// already exited (teardown) fails the job inline with
    /// [`SimFailure::ShuttingDown`].
    pub fn submit_with(
        &self,
        stim: impl Into<CycleRows>,
        deadline: Option<Instant>,
        on_reply: Box<dyn FnOnce(Result<SimOutput, SimFailure>) + Send>,
    ) {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.stats.queue_depth.fetch_add(1, Ordering::Relaxed);
        let job = SimJob {
            stim: stim.into(),
            reply: on_reply,
            enqueued: Instant::now(),
            deadline,
        };
        if let Err(mpsc::SendError(job)) = self.queue.send(job) {
            self.stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
            (job.reply)(Err(SimFailure::ShuttingDown));
        }
    }
}

fn batch_loop(
    rx: Receiver<SimJob>,
    plan: Arc<dyn Plan>,
    stats: &ModelCounters,
    cfg: &BatchConfig,
    admission: &Admission,
    chaos: Option<&Chaos>,
) {
    let max_batch = cfg.max_batch.max(1);
    let mut runner = plan.runner();
    while let Ok(first) = rx.recv() {
        // graceful degradation: past half the in-flight budget, widen the
        // coalescing window — requests are already queueing, so spend the
        // wait on occupancy instead of dispatching slivers
        let wait = if admission.pressure() >= Pressure::Elevated {
            cfg.max_wait * PRESSURE_WAIT_FACTOR
        } else {
            cfg.max_wait
        };
        let deadline = first.enqueued + wait;
        let mut jobs = vec![first];
        while jobs.len() < max_batch {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(job) => jobs.push(job),
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        if let Some(stall) = chaos.and_then(Chaos::take_stall) {
            std::thread::sleep(stall); // injected scheduler stall
        }
        // shed lanes whose client deadline passed while they queued — a
        // reply nobody can use anymore must not occupy a forward-pass lane
        let now = Instant::now();
        let (live, expired): (Vec<SimJob>, Vec<SimJob>) = jobs
            .into_iter()
            .partition(|j| j.deadline.is_none_or(|d| d > now));
        for job in expired {
            stats.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            finish_job(stats, job, Err(SimFailure::DeadlineExceeded));
        }
        if live.is_empty() {
            continue;
        }
        let poisoned = run_coalesced(runner.as_mut(), stats, live, chaos);
        if poisoned {
            // a panic mid-pass may have left the runner's scratch state
            // inconsistent; rebuild it from the plan (cheap relative to a
            // batch)
            runner = plan.runner();
        }
    }
}

/// Send one job's reply and settle its counters. Replies to vanished
/// clients fail silently.
fn finish_job(stats: &ModelCounters, job: SimJob, reply: Result<SimOutput, SimFailure>) {
    let us = job.enqueued.elapsed().as_micros().min(u64::MAX as u128) as u64;
    stats.latency.observe_us(us);
    stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
    (job.reply)(reply);
}

/// Execute one coalesced batch and scatter results. Every job gets a reply
/// (success or typed failure). Returns `true` if a panic poisoned the
/// runner and it must be rebuilt.
///
/// The lane set is fixed for the batch's lifetime, so this is a
/// [`RaggedBatch`] run on the batcher's runner: reset once, one
/// [`Runner::advance`] per cycle, state resident in the engine. What is
/// left here is the scheduler's own: panic containment, the chaos hook
/// and the replies.
fn run_coalesced(
    runner: &mut (dyn Runner + '_),
    stats: &ModelCounters,
    jobs: Vec<SimJob>,
    chaos: Option<&Chaos>,
) -> bool {
    stats.batches.fetch_add(1, Ordering::Relaxed);
    stats.lanes.fetch_add(jobs.len() as u64, Ordering::Relaxed);

    let inject_panic = chaos.is_some_and(Chaos::take_worker_panic);
    let mut poisoned = false;
    let benches = jobs.iter().map(|j| &j.stim).collect();
    let outcome = match RaggedBatch::start(runner, benches) {
        Err(e) => Err(SimFailure::Failed(e.to_string())),
        Ok(mut run) => loop {
            if run.done() {
                break Ok(run.finish());
            }
            let c = run.cycle();
            // the forward pass may panic (a pool worker dying, injected or
            // real); contain it to this batch — the batcher must outlive
            // any single batch's failure
            let step = catch_unwind(AssertUnwindSafe(|| {
                if c == 0 && inject_panic {
                    c2nn_tensor::Pool::global().inject_worker_panic();
                }
                run.step()
            }));
            match step {
                Ok(Ok(())) => {}
                Ok(Err(e)) => break Err(SimFailure::Failed(e.to_string())),
                Err(payload) => {
                    let what = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "worker panicked".to_string());
                    poisoned = true;
                    break Err(SimFailure::Failed(format!(
                        "forward pass panicked at cycle {c}: {what} (pool self-heals; retry)"
                    )));
                }
            }
        },
    };
    match outcome {
        Ok(outputs) => {
            for (job, out) in jobs.into_iter().zip(outputs) {
                finish_job(stats, job, Ok(out));
            }
        }
        Err(failure) => {
            for job in jobs {
                finish_job(stats, job, Err(failure.clone()));
            }
        }
    }
    poisoned
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosConfig;
    use c2nn_circuits::generators::counter;
    use c2nn_core::{compile, parse_stim, BitTensor, CompileOptions};

    fn counter_nn() -> CompiledNn<f32> {
        compile(&counter(4), CompileOptions::with_l(4)).unwrap()
    }

    fn named(backend: &str) -> Choice {
        Choice::Named(backend.to_string())
    }

    /// Decode per-cycle counter values from a reply.
    fn counter_vals(out: &SimOutput) -> Vec<u32> {
        out.lanes()
            .iter()
            .map(|c| c.iter().enumerate().map(|(i, &b)| (b as u32) << i).sum())
            .collect()
    }

    #[test]
    fn coalesces_waiting_jobs_into_one_batch() {
        let nn = counter_nn();
        let model = ServedModel::spawn_standalone(
            "ctr",
            nn,
            BatchConfig {
                max_batch: 8,
                max_wait: Duration::from_millis(200),
                backend: named("scalar"),
            },
        );
        // submit 4 jobs quickly; the 200ms deadline coalesces them
        let stims = ["1 x3\n", "1 x5\n", "0 x2\n", "1 x1\n"];
        let rxs: Vec<_> = stims
            .iter()
            .map(|s| model.submit(parse_stim(s, 1).unwrap(), None))
            .collect();
        let outs: Vec<SimOutput> = rxs
            .into_iter()
            .map(|rx| rx.recv().unwrap().unwrap())
            .collect();
        // lane 0: counts 0,1,2 over 3 cycles
        assert_eq!(counter_vals(&outs[0]), vec![0, 1, 2]);
        assert_eq!(outs[1].num_cycles(), 5);
        assert_eq!(outs[2].num_cycles(), 2);
        assert_eq!(outs[3].num_cycles(), 1);
        let report = model.report();
        assert_eq!(report.requests, 4);
        assert!(
            report.mean_occupancy > 1.0,
            "expected coalescing, got {report:?}"
        );
        assert_eq!(report.queue_depth, 0);
        assert_eq!(report.backend, "scalar");
        assert!(!report.auto_selected);
    }

    #[test]
    fn auto_selection_picks_a_backend_and_labels_stats() {
        let nn = counter_nn();
        let model = ServedModel::spawn_standalone(
            "ctr",
            nn,
            BatchConfig {
                max_batch: 8,
                max_wait: Duration::from_millis(50),
                backend: Choice::Auto,
            },
        );
        assert!(
            !model.backend.is_empty() && model.auto_selected,
            "auto selection must record its winner"
        );
        assert!(model.predicted_lane_cps.is_some());
        let rx = model.submit(parse_stim("1 x3\n", 1).unwrap(), None);
        assert_eq!(rx.recv().unwrap().unwrap().num_cycles(), 3);
        let report = model.report();
        assert_eq!(report.backend, model.backend);
        assert!(report.auto_selected);
    }

    #[test]
    fn dropped_receiver_does_not_poison_the_batch() {
        let nn = counter_nn();
        let model = ServedModel::spawn_standalone(
            "ctr",
            nn,
            BatchConfig {
                max_batch: 4,
                max_wait: Duration::from_millis(100),
                backend: named("scalar"),
            },
        );
        let keep = model.submit(parse_stim("1 x4\n", 1).unwrap(), None);
        let drop_me = model.submit(parse_stim("1 x6\n", 1).unwrap(), None);
        drop(drop_me); // client disconnects mid-batch
        let out = keep.recv().unwrap().unwrap();
        assert_eq!(out.num_cycles(), 4);
        assert_eq!(
            counter_vals(&out),
            vec![0, 1, 2, 3],
            "surviving lane unaffected by the dropout"
        );
    }

    #[test]
    fn lone_job_runs_after_deadline() {
        let nn = counter_nn();
        let model = ServedModel::spawn_standalone(
            "ctr",
            nn,
            BatchConfig {
                max_batch: 64,
                max_wait: Duration::from_millis(1),
                backend: named("scalar"),
            },
        );
        let rx = model.submit(parse_stim("1 x2\n", 1).unwrap(), None);
        let out = rx.recv().unwrap().unwrap();
        assert_eq!(out.num_cycles(), 2);
        let report = model.report();
        assert_eq!((report.batches, report.lanes), (1, 1));
    }

    #[test]
    fn expired_deadline_is_shed_typed_and_costs_no_lane() {
        let nn = counter_nn();
        let model = ServedModel::spawn_standalone(
            "ctr",
            nn,
            BatchConfig {
                max_batch: 8,
                max_wait: Duration::from_millis(50),
                backend: named("scalar"),
            },
        );
        // already expired on arrival: must shed, not simulate
        let dead = model.submit(
            parse_stim("1 x4\n", 1).unwrap(),
            Some(Instant::now() - Duration::from_millis(1)),
        );
        // generous deadline: must run normally in the same batch window
        let live = model.submit(
            parse_stim("1 x3\n", 1).unwrap(),
            Some(Instant::now() + Duration::from_secs(30)),
        );
        assert_eq!(dead.recv().unwrap(), Err(SimFailure::DeadlineExceeded));
        assert_eq!(live.recv().unwrap().unwrap().num_cycles(), 3);
        let report = model.report();
        assert_eq!(report.deadline_exceeded, 1);
        assert_eq!(report.lanes, 1, "shed lane never reached the forward pass");
        assert_eq!(report.queue_depth, 0);
    }

    #[test]
    fn all_backends_serve_bit_exact_batches() {
        // same compiled model, every registered backend, identical stimuli
        // → replies must be bit-identical, lane for lane, cycle for cycle
        let nn = counter_nn();
        let stims = ["1 x5\n", "0 x3\n", "1 x7\n", "1 x2\n"];
        let mut replies: Vec<Vec<SimOutput>> = Vec::new();
        let backends = BackendRegistry::global().names();
        for backend in &backends {
            let model = ServedModel::spawn_standalone(
                "ctr",
                nn.clone(),
                BatchConfig {
                    max_batch: 8,
                    max_wait: Duration::from_millis(200),
                    backend: named(backend),
                },
            );
            assert_eq!(model.backend, *backend);
            let rxs: Vec<_> = stims
                .iter()
                .map(|s| model.submit(parse_stim(s, 1).unwrap(), None))
                .collect();
            replies.push(
                rxs.into_iter()
                    .map(|rx| rx.recv().unwrap().unwrap())
                    .collect(),
            );
        }
        for (i, r) in replies.iter().enumerate().skip(1) {
            assert_eq!(
                replies[0], *r,
                "backends {} and {} disagree over the wire",
                backends[0], backends[i]
            );
        }
        // sanity: the counter actually counted
        assert_eq!(counter_vals(&replies[0][0]), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn wrong_width_stimulus_fails_typed_instead_of_being_truncated() {
        for backend in BackendRegistry::global().names() {
            let model = ServedModel::spawn_standalone(
                "ctr",
                counter_nn(),
                BatchConfig {
                    max_batch: 4,
                    max_wait: Duration::from_millis(1),
                    backend: named(backend),
                },
            );
            // the counter has one input; both births carry two
            let wide = parse_stim("11 x3\n", 2).unwrap();
            for stim in [
                CycleRows::from(BitTensor::from_lanes(&wide.cycles)),
                CycleRows::from(wide),
            ] {
                match model.submit(stim, None).recv().unwrap() {
                    Err(SimFailure::Failed(msg)) => assert!(
                        msg.contains("input width mismatch: network expects 1, got 2"),
                        "{backend}: {msg}"
                    ),
                    other => panic!("{backend}: expected a typed failure, got {other:?}"),
                }
            }
            // the batcher is unharmed
            let rx = model.submit(parse_stim("1 x3\n", 1).unwrap(), None);
            assert_eq!(counter_vals(&rx.recv().unwrap().unwrap()), vec![0, 1, 2]);
        }
    }

    #[test]
    fn bitplane_batcher_survives_injected_panic() {
        // the poisoned-runner rebuild path must restore a runner from the
        // *same plan* — a bitplane batcher must not silently fall back to
        // CSR semantics
        let nn = counter_nn();
        let chaos = Chaos::new(ChaosConfig::parse("worker_panic=1,worker_panic_budget=1").unwrap());
        let model = ServedModel::spawn_selected(
            "ctr",
            nn,
            BatchConfig {
                max_batch: 4,
                max_wait: Duration::from_millis(10),
                backend: named("bitplane"),
            },
            Admission::unbounded(),
            Some(Arc::clone(&chaos)),
        )
        .unwrap();
        let rx = model.submit(parse_stim("1 x4\n", 1).unwrap(), None);
        assert!(
            matches!(rx.recv().unwrap(), Err(SimFailure::Failed(_))),
            "first batch rides the injected panic"
        );
        let rx = model.submit(parse_stim("1 x3\n", 1).unwrap(), None);
        let out = rx.recv().unwrap().unwrap();
        assert_eq!(
            counter_vals(&out),
            vec![0, 1, 2],
            "bitplane batcher recovered bit-exactly"
        );
    }

    #[test]
    fn injected_worker_panic_fails_batch_typed_and_batcher_survives() {
        let nn = counter_nn();
        let chaos = Chaos::new(ChaosConfig::parse("worker_panic=1,worker_panic_budget=1").unwrap());
        let model = ServedModel::spawn_selected(
            "ctr",
            nn,
            BatchConfig {
                max_batch: 4,
                max_wait: Duration::from_millis(10),
                // pooled-csr so the injection hits the real pool path
                backend: named("pooled-csr"),
            },
            Admission::unbounded(),
            Some(Arc::clone(&chaos)),
        )
        .unwrap();
        let rx = model.submit(parse_stim("1 x4\n", 1).unwrap(), None);
        match rx.recv().unwrap() {
            Err(SimFailure::Failed(msg)) => {
                assert!(msg.contains("panicked"), "typed panic failure, got: {msg}")
            }
            other => panic!("expected typed failure, got {other:?}"),
        }
        assert_eq!(chaos.injected_panics(), 1);
        // budget exhausted → the very next batch succeeds bit-exactly
        let rx = model.submit(parse_stim("1 x3\n", 1).unwrap(), None);
        let out = rx.recv().unwrap().unwrap();
        assert_eq!(
            counter_vals(&out),
            vec![0, 1, 2],
            "batcher and pool recovered"
        );
    }
}
