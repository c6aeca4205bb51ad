#include "serve/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>

#include "core/batched_simulator.hpp"
#include "core/features.hpp"
#include "obs/trace.hpp"
#include "serve/cache_key.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace gns::serve {

namespace {

/// Validated per-job rollout inputs: one batch member's window and scene
/// context.
struct MemberInputs {
  core::Window window;
  core::SceneContext context;
};

bool all_finite(const std::vector<double>& values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

/// Parses and validates one request against the model's feature config.
/// Throws std::runtime_error on malformed input, NaN and infinities included
/// (typed to ExecutionError by the chain preflight, so never cached).
MemberInputs build_member_inputs(const RolloutRequest& req,
                                 const core::FeatureConfig& features) {
  if (req.steps <= 0) throw std::runtime_error("steps must be positive");
  if (static_cast<int>(req.window.size()) != features.window_size())
    throw std::runtime_error(
        "window must hold " + std::to_string(features.window_size()) +
        " frames, got " + std::to_string(req.window.size()));
  const std::size_t frame_len = req.window.front().size();
  if (frame_len == 0 || frame_len % static_cast<std::size_t>(features.dim))
    throw std::runtime_error("frame length must be a multiple of dim");
  for (const auto& frame : req.window) {
    if (frame.size() != frame_len)
      throw std::runtime_error("window frames differ in length");
    if (!all_finite(frame))
      throw std::runtime_error("window holds a non-finite value");
  }
  if (!std::isfinite(req.material))
    throw std::runtime_error("material is not finite");
  if (!all_finite(req.node_attrs))
    throw std::runtime_error("node_attrs holds a non-finite value");
  const int n = static_cast<int>(frame_len) / features.dim;

  MemberInputs inputs;
  inputs.window.reserve(req.window.size());
  for (const auto& frame : req.window)
    inputs.window.push_back(core::frame_to_tensor(frame, features.dim));

  if (features.material_feature)
    inputs.context.material = ad::Tensor::scalar(req.material);
  if (features.static_node_attrs > 0) {
    if (static_cast<int>(req.node_attrs.size()) !=
        n * features.static_node_attrs)
      throw std::runtime_error("node_attrs size mismatch");
    inputs.context.node_attrs = ad::Tensor::from_vector(
        n, features.static_node_attrs, req.node_attrs);
  }
  return inputs;
}

/// GNS_SLOW_REQUEST_MS: requests whose submit-to-resolve time meets the
/// threshold get one structured warning line with their trace id and phase
/// breakdown. Unset/empty disables; parsed once.
double slow_request_threshold_ms() {
  static const double threshold = [] {
    const char* env = std::getenv("GNS_SLOW_REQUEST_MS");
    if (env == nullptr || *env == '\0') return -1.0;
    return std::atof(env);
  }();
  return threshold;
}

void log_slow_request(const RolloutRequest& request,
                      const RolloutResult& result) {
  char trace_hex[24];
  std::snprintf(trace_hex, sizeof(trace_hex), "0x%016llx",
                static_cast<unsigned long long>(result.trace_id));
  const PhaseTimeline& p = result.phases;
  GNS_WARN("slow_request trace_id="
           << trace_hex << " job_id=" << result.job_id << " model="
           << request.model << " steps=" << request.steps << " status="
           << to_string(result.status) << " cache="
           << to_string(result.cache_outcome) << " total_ms="
           << result.total_ms << " decode_us=" << p.decode_us << " cache_us="
           << p.cache_us << " queue_us=" << p.queue_us << " batch_wait_us="
           << p.batch_wait_us << " compute_us=" << p.compute_us);
}

}  // namespace

JobScheduler::JobScheduler(std::shared_ptr<ModelRegistry> registry,
                           SchedulerConfig config)
    : registry_(std::move(registry)),
      config_(std::move(config)),
      stats_(config_.stats_prefix) {
  GNS_CHECK_MSG(registry_ != nullptr, "JobScheduler needs a registry");
  GNS_CHECK_MSG(config_.workers >= 1, "JobScheduler needs >= 1 worker");
  GNS_CHECK_MSG(config_.queue_capacity >= 1,
                "JobScheduler needs a positive queue capacity");
  GNS_CHECK_MSG(config_.max_batch >= 1,
                "JobScheduler max_batch must be >= 1");
  GNS_CHECK_MSG(config_.batch_window_us >= 0.0,
                "JobScheduler batch_window_us must be >= 0");
}

JobScheduler::~JobScheduler() { shutdown(true); }

JobTicket JobScheduler::submit(RolloutRequest request) {
  GNS_TRACE_SCOPE_T("serve.scheduler.submit", request.trace_id);
  Job job;
  job.request = std::move(request);
  job.cancelled = std::make_shared<std::atomic<bool>>(false);
  job.submitted = Clock::now();
  job.has_deadline = job.request.deadline_ms > 0.0;
  job.deadline =
      job.has_deadline
          ? job.submitted + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::milli>(
                                    job.request.deadline_ms))
          : Clock::time_point::max();

  JobTicket ticket;
  ticket.result = job.promise.get_future();

  JobStatus rejection = JobStatus::Ok;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job.id = next_id_++;
    ticket.id = job.id;
    if (stopping_) {
      rejection = JobStatus::ShutDown;
    } else if (job.request.deadline_ms < 0.0) {
      // An already-expired deadline (deadline propagation upstream can eat
      // the whole budget before submit) is rejected here: such a job must
      // never occupy a queue or batch slot, and must not be mistaken for
      // an unbounded one.
      rejection = JobStatus::DeadlineExceeded;
    }
  }

  if (rejection == JobStatus::Ok && config_.cache != nullptr &&
      consult_cache(job) == CacheOutcome::Resolved) {
    return ticket;  // hit (already fulfilled) or joined an in-flight twin
  }

  if (rejection == JobStatus::Ok) {
    std::lock_guard<std::mutex> lock(mutex_);
    // Re-check: the cache consult ran without the lock held.
    if (stopping_) {
      rejection = JobStatus::ShutDown;
    } else if (static_cast<int>(queue_.size()) >= config_.queue_capacity) {
      rejection = JobStatus::QueueFull;
    } else {
      live_flags_[job.id] = job.cancelled;
      const std::uint64_t id = job.id;
      const bool has_deadline = job.has_deadline;
      const Clock::time_point deadline = job.deadline;
      queue_.push_back(std::move(job));
      stats_.on_submitted(static_cast<int>(queue_.size()));
      // Deadline expiry is a timer, not a poll: a still-queued job
      // resolves the moment its budget lapses. Cancelled when the job
      // dispatches (or at shutdown).
      if (has_deadline)
        deadline_timers_[id] =
            tasks_.schedule_at(deadline, [this, id] { expire_queued(id); });
      schedule_drain_locked();
    }
  }
  if (rejection == JobStatus::Ok) return ticket;

  // Rejection path: resolve immediately, never block the caller.
  RolloutResult result;
  result.status = rejection;
  result.job_id = ticket.id;
  switch (rejection) {
    case JobStatus::QueueFull:
      result.error = "queue at capacity";
      break;
    case JobStatus::DeadlineExceeded:
      result.error = "deadline already expired at submit";
      break;
    default:
      result.error = "scheduler shutting down";
      break;
  }
  if (job.has_cache_key) {
    // The job claimed flight leadership before being rejected: release
    // the flight so followers fail fast instead of waiting forever, and
    // drop the cancel-flag registration the consult made.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      live_flags_.erase(job.id);
    }
    config_.cache->abandon(job.cache_key, {},
                           static_cast<int>(rejection), result.error);
  }
  stats_.on_rejected(rejection);
  job.promise.set_value(std::move(result));
  return ticket;
}

JobScheduler::CacheOutcome JobScheduler::consult_cache(Job& job) {
  if (job.request.steps <= 0) return CacheOutcome::Enqueue;
  GNS_TRACE_SCOPE_T("serve.scheduler.cache_consult", job.request.trace_id);
  Timer cache_timer;
  const ModelRegistry::Resolved model = registry_->resolve(job.request.model);
  if (model.simulator == nullptr) {
    return CacheOutcome::Enqueue;  // the chain will type ModelNotFound
  }
  const std::uint64_t key = compute_cache_key(job.request, model.digest,
                                              model.simulator->features());
  job.cache_key = key;

  // Everything follower fulfillment needs, detached from the Job (which
  // dies when submit returns). The promise lives here for ALL outcomes
  // and is moved back on Hit/Lead.
  struct FollowerState {
    std::promise<RolloutResult> promise;
    std::shared_ptr<std::atomic<bool>> cancelled;
    std::uint64_t id = 0;
    Clock::time_point submitted;
    Clock::time_point deadline;
    bool has_deadline = false;
    std::uint64_t trace_id = 0;
    double decode_us = 0.0;
    double cache_us = 0.0;
  };
  auto state = std::make_shared<FollowerState>();
  state->promise = std::move(job.promise);
  state->cancelled = job.cancelled;
  state->id = job.id;
  state->submitted = job.submitted;
  state->deadline = job.deadline;
  state->has_deadline = job.has_deadline;
  state->trace_id = job.request.trace_id;
  state->decode_us = job.request.decode_us;

  // Register the cancel flag BEFORE the join attempt: the leader can
  // finish on another thread the instant lookup_or_join returns, and its
  // callback erases this registration. (Hit/Lead paths clean up below —
  // for Lead the enqueue overwrites the same entry idempotently.)
  {
    std::lock_guard<std::mutex> lock(mutex_);
    live_flags_[job.id] = job.cancelled;
  }

  store::FollowerFn on_done = [this, state](store::Frames frames,
                                            bool complete, int code,
                                            const std::string& error) {
    RolloutResult result;
    result.cached = true;
    result.frames = std::move(frames);
    if (state->cancelled->load(std::memory_order_relaxed)) {
      result.status = JobStatus::Cancelled;
      result.frames.clear();  // a cancelled job returns no frames it ran for
    } else if (state->has_deadline && Clock::now() > state->deadline) {
      result.status = JobStatus::DeadlineExceeded;
      result.error = "deadline exceeded while coalesced onto an identical "
                     "in-flight rollout";
    } else if (complete) {
      result.status = JobStatus::Ok;
    } else {
      result.status = static_cast<JobStatus>(code);
      result.error = error;
    }
    result.job_id = state->id;
    result.cache_outcome = serve::CacheOutcome::Joined;
    result.trace_id = state->trace_id;
    const double wait_ms = std::chrono::duration<double, std::milli>(
                               Clock::now() - state->submitted)
                               .count();
    result.queue_ms = wait_ms;  // a follower's whole life is queue wait
    result.total_ms = wait_ms;
    result.phases.decode_us = state->decode_us;
    result.phases.cache_us = state->cache_us;
    result.phases.queue_us =
        std::max(0.0, wait_ms * 1e3 - state->cache_us);
    int depth = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      live_flags_.erase(state->id);
      depth = static_cast<int>(queue_.size());
    }
    stats_.on_resolved(result, depth);
    state->promise.set_value(std::move(result));
  };

  // Stamped before the join attempt: a joined follower's callback can fire
  // on the leader's thread the instant lookup_or_join returns, so writing
  // state afterwards would race.
  state->cache_us = cache_timer.millis() * 1e3;

  store::RolloutCache::Lookup found =
      config_.cache->lookup_or_join(key, job.request.steps, std::move(on_done));

  switch (found.outcome) {
    case store::RolloutCache::Outcome::Hit: {
      job.promise = std::move(state->promise);
      job.cache_us = cache_timer.millis() * 1e3;
      stats_.on_submitted(queue_depth());
      RolloutResult result;
      result.status = JobStatus::Ok;
      result.cached = true;
      result.cache_outcome = serve::CacheOutcome::Hit;
      result.frames = std::move(found.frames);
      resolve(std::move(job), std::move(result));
      return CacheOutcome::Resolved;
    }
    case store::RolloutCache::Outcome::Joined:
      stats_.on_submitted(queue_depth());  // accepted, just not queued work
      return CacheOutcome::Resolved;
    case store::RolloutCache::Outcome::Lead:
      job.promise = std::move(state->promise);
      job.has_cache_key = true;
      job.cache_us = cache_timer.millis() * 1e3;
      return CacheOutcome::Enqueue;
  }
  return CacheOutcome::Enqueue;  // unreachable
}

bool JobScheduler::cancel(std::uint64_t job_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = live_flags_.find(job_id);
  if (it == live_flags_.end()) return false;
  it->second->store(true, std::memory_order_relaxed);
  return true;
}

void JobScheduler::pause() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
  // A pause interrupts the coalescing wait: batches already parked
  // dispatch immediately (a popped job runs during pause; only queued
  // jobs hold their place).
  flush_pending_locked();
}

void JobScheduler::resume() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = false;
  if (!queue_.empty()) schedule_drain_locked();
}

void JobScheduler::shutdown(bool drain) {
  std::deque<Job> orphans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    paused_ = false;  // a paused scheduler must still drain and exit
    if (!drain) orphans.swap(queue_);
    // Queued-deadline timers would stall quiescence below (a 30 s budget
    // keeps its timer armed for 30 s); chains re-check expiry at dispatch
    // anyway, so cancel them all.
    for (auto& entry : deadline_timers_) tasks_.cancel(entry.second);
    deadline_timers_.clear();
    flush_pending_locked();  // stop waiting out batch windows
    if (!queue_.empty()) schedule_drain_locked();
  }
  for (Job& job : orphans) {
    RolloutResult result;
    result.status = JobStatus::ShutDown;
    result.error = "scheduler shut down before execution";
    resolve(std::move(job), std::move(result));
  }
  // Quiesce: a chain or parked batch always has a task or timer of tasks_
  // outstanding, and a queued job a drain, so once the group is empty
  // nothing of this object is left on the (shared, global) executor.
  tasks_.wait();
}

int JobScheduler::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(queue_.size());
}

void JobScheduler::resolve(Job&& job, RolloutResult result) {
  result.job_id = job.id;
  result.total_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - job.submitted)
          .count();
  result.trace_id = job.request.trace_id;
  if (result.status == JobStatus::Ok && !result.cached) {
    result.cache_outcome = job.has_cache_key ? serve::CacheOutcome::Miss
                                             : serve::CacheOutcome::None;
  }
  // Phase assembly (a joined follower's phases are filled where it
  // resolves). queue_us is the time from submit to the worker pull, minus
  // what the cache consult already accounted for.
  result.phases.decode_us = job.request.decode_us;
  result.phases.cache_us = job.cache_us;
  if (job.dequeued != Clock::time_point{}) {
    const double pre_dispatch_us =
        std::chrono::duration<double, std::micro>(job.dequeued -
                                                  job.submitted)
            .count();
    result.phases.queue_us = std::max(0.0, pre_dispatch_us - job.cache_us);
  }
  result.phases.compute_us = result.exec_ms * 1e3;
  // Flight-leader funnel: every terminal path of a leading job releases
  // its flight exactly once — complete() after a bitwise-complete rollout
  // (which also inserts it into the store), abandon() for anything less
  // (partial prefixes still salvage followers they cover). This runs
  // before the promise resolves so a caller that observes completion can
  // immediately re-submit and hit.
  if (job.has_cache_key && config_.cache != nullptr) {
    if (result.status == JobStatus::Ok &&
        result.frames.size() ==
            static_cast<std::size_t>(job.request.steps)) {
      config_.cache->complete(job.cache_key, result.frames);
    } else {
      config_.cache->abandon(job.cache_key, result.frames,
                             static_cast<int>(result.status), result.error);
    }
  }
  int depth = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    live_flags_.erase(job.id);
    depth = static_cast<int>(queue_.size());
  }
  stats_.on_resolved(result, depth);
  if (slow_request_threshold_ms() >= 0.0 &&
      result.total_ms >= slow_request_threshold_ms()) {
    log_slow_request(job.request, result);
  }
  job.promise.set_value(std::move(result));
}

// ---------------------------------------------------------------------------
// Executor machinery. The scheduler owns no threads: drains, batch windows,
// queued deadlines, and rollout steps are all tasks or timers of its
// exec::TaskGroup on the global work-stealing executor, and every terminal
// path funnels into resolve().
// ---------------------------------------------------------------------------

/// One in-flight rollout chain: preflighted on its first task, then
/// advanced one BatchedRollout step per task so a long rollout never
/// monopolizes a worker. A job dispatched alone is a batch of one.
/// Tensors migrate between executor workers across tasks; that is safe
/// because tensor storage is plain heap vectors and each task re-enters
/// NoGradGuard for its own thread-local tape flag.
struct JobScheduler::ChainState {
  std::vector<Job> jobs;
  std::vector<RolloutResult> results;
  std::vector<std::size_t> members;  ///< job index per batch member
  std::vector<int> steps;
  std::unique_ptr<core::BatchedRollout> rollout;
  std::string error;  ///< what() of the step (or setup) that threw
  Clock::time_point exec_started{};
  std::int64_t exec_started_ns = 0;
};

void JobScheduler::schedule_drain_locked() {
  if (drain_scheduled_) return;
  drain_scheduled_ = true;
  tasks_.submit([this] { drain_ready(); });
}

void JobScheduler::cancel_deadline_timer_locked(std::uint64_t id) {
  auto it = deadline_timers_.find(id);
  if (it == deadline_timers_.end()) return;
  // A lost race (timer already firing) is fine: expire_queued only acts
  // on jobs it still finds in queue_ — whoever removes a job from the
  // queue owns its resolution.
  tasks_.cancel(it->second);
  deadline_timers_.erase(it);
}

void JobScheduler::expire_queued(std::uint64_t id) {
  Job job;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    deadline_timers_.erase(id);
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->id == id) {
        job = std::move(*it);
        queue_.erase(it);
        found = true;
        break;
      }
    }
  }
  if (!found) return;  // dispatched or resolved first
  RolloutResult result;
  result.status = JobStatus::DeadlineExceeded;
  result.error = "deadline exceeded while queued";
  result.queue_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                              job.submitted)
                        .count();
  resolve(std::move(job), std::move(result));
}

void JobScheduler::take_compatible_locked(std::vector<Job>& batch,
                                          const std::string& model) {
  for (auto it = queue_.begin();
       it != queue_.end() &&
       static_cast<int>(batch.size()) < config_.max_batch;) {
    if (it->request.model == model) {
      cancel_deadline_timer_locked(it->id);
      batch.push_back(std::move(*it));
      batch.back().dequeued = Clock::now();
      it = queue_.erase(it);
    } else {
      ++it;  // incompatible jobs keep their place for other chains
    }
  }
}

void JobScheduler::flush_pending_locked() {
  for (auto& entry : pending_batches_) {
    PendingBatch& pb = *entry.second;
    if (pb.timer != 0 && tasks_.cancel(pb.timer)) {
      pb.timer = 0;
      const std::uint64_t id = entry.first;
      tasks_.submit([this, id] { dispatch_pending(id); });
    }
    // Cancel lost: the timer is firing concurrently and will dispatch.
  }
}

void JobScheduler::drain_ready() {
  std::vector<std::vector<Job>> dispatches;
  std::vector<std::uint64_t> filled;  ///< parked batches now at max_batch
  {
    std::lock_guard<std::mutex> lock(mutex_);
    drain_scheduled_ = false;
    if (!paused_) {
      // Parked batches absorb compatible arrivals first: a job prefers
      // joining a batch that is already waiting over opening a new chain
      // slot, and a batch that fills dispatches without waiting out its
      // window (early dispatch requires winning the timer cancel race).
      for (auto& entry : pending_batches_) {
        PendingBatch& pb = *entry.second;
        if (static_cast<int>(pb.jobs.size()) < config_.max_batch)
          take_compatible_locked(pb.jobs, pb.model);
        if (static_cast<int>(pb.jobs.size()) >= config_.max_batch &&
            pb.timer != 0 && tasks_.cancel(pb.timer)) {
          pb.timer = 0;
          filled.push_back(entry.first);
        }
      }
      while (!queue_.empty() && active_chains_ < config_.workers) {
        Job leader = std::move(queue_.front());
        queue_.pop_front();
        cancel_deadline_timer_locked(leader.id);
        leader.dequeued = Clock::now();
        // By value: growing `batch` reallocates and would dangle a
        // reference into its front element.
        const std::string model = leader.request.model;
        std::vector<Job> batch;
        batch.push_back(std::move(leader));
        if (config_.max_batch > 1) take_compatible_locked(batch, model);
        ++active_chains_;  // parked batches hold their slot too
        Clock::time_point wake = Clock::time_point::max();
        if (static_cast<int>(batch.size()) < config_.max_batch &&
            config_.batch_window_us > 0.0 && !stopping_) {
          // Never hold a member past its own deadline just to fill the
          // batch: the window is capped by the earliest member deadline.
          wake = Clock::now() +
                 std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::micro>(
                         config_.batch_window_us));
          for (const Job& job : batch) {
            if (job.has_deadline) wake = std::min(wake, job.deadline);
          }
        }
        if (wake != Clock::time_point::max() && Clock::now() < wake) {
          auto pb = std::make_shared<PendingBatch>();
          pb->model = batch.front().request.model;
          const std::uint64_t leader_id = batch.front().id;
          pb->jobs = std::move(batch);
          pending_batches_[leader_id] = pb;
          pb->timer = tasks_.schedule_at(
              wake, [this, leader_id] { dispatch_pending(leader_id); });
        } else {
          dispatches.push_back(std::move(batch));
        }
      }
    }
  }
  for (auto& batch : dispatches) start_chain(std::move(batch));
  for (std::uint64_t id : filled) dispatch_pending(id);
}

void JobScheduler::dispatch_pending(std::uint64_t leader_id) {
  std::vector<Job> jobs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = pending_batches_.find(leader_id);
    if (it == pending_batches_.end()) return;  // lost a dispatch race
    jobs = std::move(it->second->jobs);
    pending_batches_.erase(it);
  }
  start_chain(std::move(jobs));
}

void JobScheduler::start_chain(std::vector<Job> jobs) {
  auto chain = std::make_shared<ChainState>();
  chain->jobs = std::move(jobs);
  chain->results.resize(chain->jobs.size());
  tasks_.submit([this, chain] { chain_step(chain); });
}

void JobScheduler::preflight(ChainState& chain) {
  const Clock::time_point started = Clock::now();
  const ModelRegistry::Handle sim =
      registry_->get(chain.jobs[0].request.model);
  std::vector<core::Window> windows;
  std::vector<core::SceneContext> contexts;
  for (std::size_t i = 0; i < chain.jobs.size(); ++i) {
    const Job& job = chain.jobs[i];
    RolloutResult& result = chain.results[i];
    result.queue_ms =
        std::chrono::duration<double, std::milli>(started - job.submitted)
            .count();
    if (job.dequeued != Clock::time_point{}) {
      result.phases.batch_wait_us =
          std::chrono::duration<double, std::micro>(started - job.dequeued)
              .count();
    }
    if (job.cancelled->load(std::memory_order_relaxed)) {
      result.status = JobStatus::Cancelled;
      continue;
    }
    if (job.has_deadline && Clock::now() > job.deadline) {
      result.status = JobStatus::DeadlineExceeded;
      result.error = "deadline exceeded while queued";
      continue;
    }
    if (sim == nullptr) {
      result.status = JobStatus::ModelNotFound;
      result.error = "no model registered as '" + job.request.model + "'";
      continue;
    }
    try {  // a malformed member fails alone; its siblings still step
      MemberInputs inputs = build_member_inputs(job.request, sim->features());
      windows.push_back(std::move(inputs.window));
      contexts.push_back(std::move(inputs.context));
      chain.members.push_back(i);
      chain.steps.push_back(job.request.steps);
      result.status = JobStatus::Ok;
    } catch (const std::exception& e) {
      result.status = JobStatus::ExecutionError;
      result.error = e.what();
    }
  }
  if (chain.members.empty()) return;
  stats_.on_dispatch(static_cast<int>(chain.members.size()));
  chain.exec_started = Clock::now();
  chain.exec_started_ns = obs::trace_now_ns();
  chain.rollout = std::make_unique<core::BatchedRollout>(
      sim, windows, chain.steps, contexts);
}

void JobScheduler::chain_step(const std::shared_ptr<ChainState>& chain) {
  // Per-task guard: the tape flag is thread-local and this chain's tasks
  // land on whichever worker steals them.
  ad::NoGradGuard no_grad;
  // The gate runs before every step: an expired or cancelled member is
  // compacted out with its partial frames while the rest keep stepping, so
  // each member's deadline is honored even though they share forward
  // passes.
  const auto gate = [&chain](int m) {
    const Job& job = chain->jobs[chain->members[m]];
    RolloutResult& result = chain->results[chain->members[m]];
    if (job.cancelled->load(std::memory_order_relaxed)) {
      result.status = JobStatus::Cancelled;
      return false;
    }
    if (job.has_deadline && Clock::now() > job.deadline) {
      result.status = JobStatus::DeadlineExceeded;
      return false;
    }
    return true;
  };
  bool more = false;
  try {
    if (chain->rollout == nullptr) preflight(*chain);
    more = chain->rollout != nullptr && chain->rollout->step_once(gate);
  } catch (const std::exception& e) {
    chain->error = e.what();  // finish_chain fails the members still stepping
  }
  if (!more) {
    finish_chain(chain);
    return;
  }
  // One step done: yield the worker and resubmit as a continuation.
  tasks_.submit([this, chain] { chain_step(chain); });
}

void JobScheduler::finish_chain(const std::shared_ptr<ChainState>& chain) {
  if (chain->exec_started_ns != 0) {
    const double exec_ms = std::chrono::duration<double, std::milli>(
                               Clock::now() - chain->exec_started)
                               .count();
    const std::int64_t end_ns = obs::trace_now_ns();
    std::vector<std::vector<std::vector<double>>> frames;
    if (chain->rollout != nullptr) frames = chain->rollout->take_frames();
    for (std::size_t m = 0; m < chain->members.size(); ++m) {
      const std::size_t i = chain->members[m];
      RolloutResult& result = chain->results[i];
      if (!frames.empty()) result.frames = std::move(frames[m]);
      const std::size_t want = static_cast<std::size_t>(chain->steps[m]);
      if (result.status == JobStatus::DeadlineExceeded) {
        result.error = "deadline exceeded after " +
                       std::to_string(result.frames.size()) + " of " +
                       std::to_string(want) + " steps";
      } else if (result.status == JobStatus::Ok &&
                 result.frames.size() < want) {
        // The one failure rule: a step threw while this member was still
        // stepping. It keeps the frames it already has; members that had
        // finished before the throw keep Ok.
        result.status = JobStatus::ExecutionError;
        result.error = chain->error;
      }
      // Forward passes are shared, so per-member execution time is the
      // chain's wall time; each member gets its own execute span so traced
      // requests stay visible when their compute was amortized.
      result.exec_ms = exec_ms;
      obs::record_manual_span("serve.scheduler.execute",
                              chain->exec_started_ns, end_ns,
                              chain->jobs[i].request.trace_id,
                              static_cast<std::int64_t>(chain->jobs[i].id));
    }
    obs::record_manual_span(
        "serve.scheduler.execute_batch", chain->exec_started_ns, end_ns, 0,
        static_cast<std::int64_t>(chain->members.size()));
  }
  for (std::size_t i = 0; i < chain->jobs.size(); ++i)
    resolve(std::move(chain->jobs[i]), std::move(chain->results[i]));
  std::lock_guard<std::mutex> lock(mutex_);
  --active_chains_;
  if (!queue_.empty()) schedule_drain_locked();
}

}  // namespace gns::serve
