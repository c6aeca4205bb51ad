// Router fleet E2E over loopback, driven by the net_fault proxy: placement
// spreads by in-flight load and respects HELLO-advertised models, a backend
// killed before its first chunk fails over transparently (bitwise-identical
// stream), one killed after streaming surfaces a typed BackendLost, slow
// backends are evicted and re-admitted, a full fleet surfaces Busy, drain
// loses zero accepted jobs, and pre-v3 backends run under conservative
// defaults.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.hpp"
#include "net/net.hpp"
#include "net_fault.hpp"
#include "obs/obs.hpp"
#include "router/router.hpp"
#include "serve/serve.hpp"

namespace gns::router {
namespace {

using core::FeatureConfig;
using core::GnsConfig;
using core::LearnedSimulator;
using core::SceneContext;
using net_fault::FaultAction;
using net_fault::FaultProxy;
using net_fault::FaultScript;

io::Dataset small_dataset() {
  io::Dataset ds;
  io::Trajectory traj;
  traj.dim = 2;
  traj.num_particles = 6;
  traj.domain_lo = {0.0, 0.0};
  traj.domain_hi = {1.0, 1.0};
  traj.material_param = 0.6;
  Rng rng(7);
  std::vector<double> base(12);
  for (auto& v : base) v = rng.uniform(0.3, 0.7);
  for (int t = 0; t < 12; ++t) {
    std::vector<double> frame(12);
    for (int i = 0; i < 12; ++i) frame[i] = base[i] + 0.002 * t * (i % 3);
    traj.add_frame(std::move(frame));
  }
  ds.trajectories.push_back(std::move(traj));
  return ds;
}

LearnedSimulator make_small_sim() {
  FeatureConfig fc;
  fc.dim = 2;
  fc.history = 3;
  fc.connectivity_radius = 0.4;
  fc.domain_lo = {0.0, 0.0};
  fc.domain_hi = {1.0, 1.0};
  fc.material_feature = true;
  GnsConfig gc;
  gc.latent = 8;
  gc.mlp_hidden = 8;
  gc.mlp_layers = 1;
  gc.message_passing_steps = 2;
  return core::make_simulator(small_dataset(), fc, gc, /*seed=*/42);
}

serve::RolloutRequest small_request(const LearnedSimulator& sim, int steps,
                                    const std::string& model = "m") {
  io::Dataset ds = small_dataset();
  const io::Trajectory& traj = ds.trajectories[0];
  serve::RolloutRequest req;
  req.model = model;
  req.steps = steps;
  req.material = traj.material_param;
  const int w = sim.features().window_size();
  for (int t = 0; t < w; ++t) req.window.push_back(traj.frames[t]);
  return req;
}

std::vector<std::vector<double>> direct_rollout(const LearnedSimulator& sim,
                                                int steps) {
  io::Dataset ds = small_dataset();
  SceneContext ctx;
  ctx.material = ad::Tensor::scalar(ds.trajectories[0].material_param);
  return sim.rollout(sim.window_from_trajectory(ds.trajectories[0]), steps,
                     ctx);
}

void expect_bitwise_equal(const std::vector<std::vector<double>>& got,
                          const std::vector<std::vector<double>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t t = 0; t < want.size(); ++t) {
    ASSERT_EQ(got[t].size(), want[t].size());
    for (std::size_t k = 0; k < want[t].size(); ++k) {
      // Bitwise, not approximate: failover must hand the client the exact
      // stream a direct single-server rollout produces.
      ASSERT_EQ(got[t][k], want[t][k]) << "frame " << t << " component " << k;
    }
  }
}

serve::SchedulerConfig sched_cfg(int workers, int queue_capacity) {
  serve::SchedulerConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = queue_capacity;
  return cfg;
}

/// One backend server; `models` names the registry entries (every entry is
/// the same deterministic seed-42 simulator, so any backend's answer is
/// bitwise-comparable).
struct BackendHarness {
  explicit BackendHarness(net::ServerConfig cfg,
                          std::vector<std::string> models = {"m"},
                          serve::SchedulerConfig sched = sched_cfg(2, 32)) {
    registry = std::make_shared<serve::ModelRegistry>();
    for (const std::string& name : models) registry->put(name, make_small_sim());
    sim = registry->get(models.front());
    sched.stats_prefix = cfg.metrics_prefix + "_sched";
    scheduler = std::make_unique<serve::JobScheduler>(registry, sched);
    server = std::make_unique<net::Server>(*scheduler, std::move(cfg));
  }

  [[nodiscard]] bool start() { return server->start(); }

  std::shared_ptr<serve::ModelRegistry> registry;
  serve::ModelRegistry::Handle sim;
  std::unique_ptr<serve::JobScheduler> scheduler;
  std::unique_ptr<net::Server> server;
};

net::ServerConfig backend_cfg(const std::string& prefix) {
  net::ServerConfig cfg;
  cfg.metrics_prefix = prefix;
  return cfg;
}

RouterConfig router_cfg(const std::string& prefix, std::vector<int> ports) {
  RouterConfig cfg;
  cfg.metrics_prefix = prefix;
  // Probes stay out of the way unless a test opts in: the requests
  // themselves exercise eviction deterministically.
  cfg.probe_interval_ms = 3600 * 1000.0;
  for (int port : ports) cfg.backends.push_back({"127.0.0.1", port});
  return cfg;
}

net::ClientConfig client_cfg(const Router& router) {
  net::ClientConfig cfg;
  cfg.port = router.port();
  return cfg;
}

double counter(const std::string& name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// Polls `pred` until true or ~5s; returns its final value.
bool eventually(const std::function<bool()>& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

// ---- Raw-socket helper for HELLO (net::Client has no hello call) -----------

int raw_connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

bool raw_send(int fd, const std::vector<std::uint8_t>& wire) {
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n =
        ::send(fd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Blocking-reads the next frame from `fd` into `buf`, past the `off`
/// bytes already decoded; false on close or error. The frame borrows `buf`
/// until the next call.
bool raw_next_frame(int fd, std::vector<std::uint8_t>& buf, std::size_t& off,
                    net::FrameView& frame) {
  for (;;) {
    net::DecodeError decode_error;
    if (net::try_decode_frame(buf.data() + off, buf.size() - off, frame,
                              decode_error) == net::DecodeStatus::Ok) {
      off += frame.frame_bytes;
      return true;
    }
    std::uint8_t chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf.insert(buf.end(), chunk, chunk + n);
  }
}

bool raw_hello(int port, net::WireHelloReply& reply) {
  const int fd = raw_connect(port);
  std::vector<std::uint8_t> buf;
  std::size_t off = 0;
  net::FrameView frame;
  const bool got = raw_send(fd, net::encode_hello(1, net::WireHello{})) &&
                   raw_next_frame(fd, buf, off, frame);
  ::close(fd);
  std::string parse_error;
  return got && frame.type == net::MessageType::HelloReply &&
         net::decode_hello_reply(frame, reply, parse_error);
}

/// This process's mapped virtual memory (VmSize), in MB.
double vm_size_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmSize:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(1 << 16, '\n');
  }
  ADD_FAILURE() << "no VmSize in /proc/self/status";
  return 0.0;
}

// ---- Tests -----------------------------------------------------------------

TEST(RouterFleet, SpreadsLoadAndAggregatesHello) {
  BackendHarness a(backend_cfg("rt1a"));
  BackendHarness b(backend_cfg("rt1b"));
  ASSERT_TRUE(a.start());
  ASSERT_TRUE(b.start());
  Router router(router_cfg("rt1", {a.server->port(), b.server->port()}));
  ASSERT_TRUE(router.start());
  const auto want = direct_rollout(*a.sim, 5);

  // Pin both schedulers so two concurrent requests MUST spread: the first
  // occupies one backend's in-flight slot, least-in-flight places the
  // second on the sibling.
  a.scheduler->pause();
  b.scheduler->pause();
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      net::Client client(client_cfg(router));
      const net::ClientResult r = client.rollout(small_request(*a.sim, 5));
      if (r.ok() && r.frames == want) ++ok_count;
    });
  }
  ASSERT_TRUE(eventually([&] {
    return a.scheduler->queue_depth() >= 1 && b.scheduler->queue_depth() >= 1;
  })) << "load did not spread across both backends";
  a.scheduler->resume();
  b.scheduler->resume();
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok_count.load(), 2);

  // HELLO answered on behalf of the fleet: union of models, summed
  // capacity, current protocol.
  net::WireHelloReply hello;
  ASSERT_TRUE(raw_hello(router.port(), hello));
  EXPECT_EQ(hello.protocol_version, net::kProtocolVersion);
  ASSERT_EQ(hello.models.size(), 1u);
  EXPECT_EQ(hello.models[0], "m");
  EXPECT_EQ(hello.max_inflight, 128u);  // two backends, 64 slots each
  EXPECT_EQ(hello.draining, 0u);

  router.stop();
  a.server->stop();
  b.server->stop();
}

TEST(RouterFleet, PlacementRespectsAdvertisedModels) {
  BackendHarness a(backend_cfg("rt2a"), {"m"});
  BackendHarness b(backend_cfg("rt2b"), {"m2"});
  ASSERT_TRUE(a.start());
  ASSERT_TRUE(b.start());
  Router router(router_cfg("rt2", {a.server->port(), b.server->port()}));
  ASSERT_TRUE(router.start());
  const auto want = direct_rollout(*a.sim, 4);

  // "m2" lives only on backend b, which is NOT first in config order: only
  // capability-aware placement can serve this.
  net::Client client(client_cfg(router));
  const net::ClientResult r =
      client.rollout(small_request(*a.sim, 4, "m2"));
  ASSERT_TRUE(r.ok()) << r.transport_error << r.error;
  expect_bitwise_equal(r.frames, want);
  EXPECT_EQ(b.scheduler->stats().snapshot().completed, 1u);
  EXPECT_EQ(a.scheduler->stats().snapshot().completed, 0u);

  // A model nobody advertises mirrors the direct-server answer: a typed
  // ModelNotFound job status, not a transport error.
  const net::ClientResult missing =
      client.rollout(small_request(*a.sim, 4, "no_such_model"));
  ASSERT_TRUE(missing.transport_ok) << missing.transport_error;
  EXPECT_FALSE(missing.is_net_error);
  EXPECT_EQ(missing.status, serve::JobStatus::ModelNotFound);

  router.stop();
  a.server->stop();
  b.server->stop();
}

TEST(RouterFleet, BackendDeathPreFirstChunkFailsOverBitwiseIdentical) {
  BackendHarness a(backend_cfg("rt3a"));
  BackendHarness b(backend_cfg("rt3b"));
  ASSERT_TRUE(a.start());
  ASSERT_TRUE(b.start());
  // Backend a sits behind a proxy that lets the HELLO reply through and
  // then kills the connection at the first rollout reply frame — death
  // strictly before the first chunk reaches the router.
  FaultProxy proxy(a.server->port());
  FaultScript script;
  script.s2c = {FaultAction::pass(), FaultAction::close_before()};
  proxy.set_script(script);
  ASSERT_TRUE(proxy.start());

  Router router(router_cfg("rt3", {proxy.port(), b.server->port()}));
  ASSERT_TRUE(router.start());
  const auto want = direct_rollout(*a.sim, 5);

  // Config order makes the proxied backend the first placement; the kill
  // must be invisible: one clean stream, bitwise equal to a direct
  // rollout.
  net::Client client(client_cfg(router));
  const net::ClientResult r = client.rollout(small_request(*a.sim, 5));
  ASSERT_TRUE(r.ok()) << r.transport_error << r.error;
  expect_bitwise_equal(r.frames, want);
  EXPECT_GE(counter("rt3.failovers"), 1.0);
  EXPECT_GE(counter("rt3.evictions"), 1.0);

  bool saw_evicted = false;
  for (const BackendSnapshot& snap : router.snapshot())
    saw_evicted |= snap.health == BackendHealth::Evicted;
  EXPECT_TRUE(saw_evicted);

  router.stop();
  proxy.stop();
  a.server->stop();
  b.server->stop();
}

TEST(RouterFleet, BackendDeathPostFirstChunkIsTypedBackendLost) {
  net::ServerConfig a_cfg = backend_cfg("rt4a");
  a_cfg.chunk_frames = 1;  // several reply frames per rollout
  BackendHarness a(a_cfg);
  BackendHarness b(backend_cfg("rt4b"));
  ASSERT_TRUE(a.start());
  ASSERT_TRUE(b.start());
  // HELLO reply and first chunk pass; the connection dies before chunk
  // two. Retrying elsewhere would duplicate the streamed frames, so the
  // router must NOT fail over even though backend b is sitting right there.
  FaultProxy proxy(a.server->port());
  FaultScript script;
  script.s2c = {FaultAction::pass(), FaultAction::pass(),
                FaultAction::close_before()};
  proxy.set_script(script);
  ASSERT_TRUE(proxy.start());

  Router router(router_cfg("rt4", {proxy.port(), b.server->port()}));
  ASSERT_TRUE(router.start());

  net::Client client(client_cfg(router));
  const net::ClientResult r = client.rollout(small_request(*a.sim, 4));
  ASSERT_TRUE(r.transport_ok) << r.transport_error;
  EXPECT_TRUE(r.is_net_error);
  EXPECT_EQ(r.net_error, net::NetError::BackendLost);
  EXPECT_GE(counter("rt4.backend_lost"), 1.0);
  EXPECT_EQ(b.scheduler->stats().snapshot().completed, 0u);  // no blind retry

  // The fleet is not poisoned: the dead backend is evicted and the next
  // request lands on the sibling.
  const auto want = direct_rollout(*a.sim, 4);
  const net::ClientResult next = client.rollout(small_request(*a.sim, 4));
  ASSERT_TRUE(next.ok()) << next.transport_error << next.error;
  expect_bitwise_equal(next.frames, want);
  EXPECT_EQ(b.scheduler->stats().snapshot().completed, 1u);

  router.stop();
  proxy.stop();
  a.server->stop();
  b.server->stop();
}

TEST(RouterFleet, SlowBackendEvictedThenReadmitted) {
  BackendHarness a(backend_cfg("rt5a"));
  ASSERT_TRUE(a.start());
  FaultProxy proxy(a.server->port());
  ASSERT_TRUE(proxy.start());

  RouterConfig cfg = router_cfg("rt5", {proxy.port()});
  cfg.probe_interval_ms = 50.0;  // probes ARE the subject here
  cfg.probe_timeout_ms = 100.0;
  cfg.tuning.readmit_backoff_ms = 50.0;
  Router router(cfg);
  ASSERT_TRUE(router.start());

  // Healthy first: a probe sweep must mark the backend up.
  ASSERT_TRUE(eventually([&] {
    return router.snapshot()[0].health == BackendHealth::Healthy;
  }));

  // Now every reply (including probe replies) crawls slower than the probe
  // deadline: the next sweep evicts.
  FaultScript slow;
  slow.s2c_default = FaultAction::delay(400.0);
  proxy.set_script(slow);
  ASSERT_TRUE(eventually([&] {
    return router.snapshot()[0].health == BackendHealth::Evicted;
  })) << "slow backend was never evicted";
  EXPECT_GE(counter("rt5.evictions"), 1.0);

  // Recovery: replies speed up, the re-admission handshake succeeds after
  // the backoff, and the backend serves again.
  proxy.set_script(FaultScript{});
  ASSERT_TRUE(eventually([&] {
    return router.snapshot()[0].health == BackendHealth::Healthy;
  })) << "recovered backend was never re-admitted";
  EXPECT_GE(counter("rt5.readmissions"), 1.0);

  const auto want = direct_rollout(*a.sim, 3);
  net::Client client(client_cfg(router));
  const net::ClientResult r = client.rollout(small_request(*a.sim, 3));
  ASSERT_TRUE(r.ok()) << r.transport_error << r.error;
  expect_bitwise_equal(r.frames, want);

  router.stop();
  proxy.stop();
  a.server->stop();
}

TEST(RouterFleet, AllBackendsBusySurfacesBusyEndToEnd) {
  net::ServerConfig a_cfg = backend_cfg("rt6a");
  a_cfg.max_inflight_global = 1;  // HELLO advertises one slot each
  net::ServerConfig b_cfg = backend_cfg("rt6b");
  b_cfg.max_inflight_global = 1;
  BackendHarness a(a_cfg, {"m"}, sched_cfg(1, 8));
  BackendHarness b(b_cfg, {"m"}, sched_cfg(1, 8));
  ASSERT_TRUE(a.start());
  ASSERT_TRUE(b.start());
  Router router(router_cfg("rt6", {a.server->port(), b.server->port()}));
  ASSERT_TRUE(router.start());

  // Fill both advertised slots with pinned rollouts.
  a.scheduler->pause();
  b.scheduler->pause();
  std::atomic<int> ok_count{0};
  std::vector<std::thread> pinned;
  for (int c = 0; c < 2; ++c) {
    pinned.emplace_back([&] {
      net::Client client(client_cfg(router));
      if (client.rollout(small_request(*a.sim, 3)).ok()) ++ok_count;
    });
  }
  ASSERT_TRUE(eventually([&] {
    return a.scheduler->queue_depth() >= 1 && b.scheduler->queue_depth() >= 1;
  }));

  // The fleet is full: a no-retry client gets Busy — the signal its
  // backoff loop (the fleet's real admission queue) is built on.
  net::ClientConfig no_retry = client_cfg(router);
  no_retry.busy_max_retries = 0;
  net::Client rejected(no_retry);
  const net::ClientResult r = rejected.rollout(small_request(*a.sim, 3));
  ASSERT_TRUE(r.transport_ok) << r.transport_error;
  EXPECT_TRUE(r.is_net_error);
  EXPECT_EQ(r.net_error, net::NetError::Busy);
  EXPECT_GE(counter("rt6.busy_rejected"), 1.0);

  a.scheduler->resume();
  b.scheduler->resume();
  for (auto& t : pinned) t.join();
  EXPECT_EQ(ok_count.load(), 2);

  router.stop();
  a.server->stop();
  b.server->stop();
}

TEST(RouterFleet, DrainUnderLoadLosesZeroAcceptedJobs) {
  BackendHarness a(backend_cfg("rt7a"));
  BackendHarness b(backend_cfg("rt7b"));
  ASSERT_TRUE(a.start());
  ASSERT_TRUE(b.start());
  Router router(router_cfg("rt7", {a.server->port(), b.server->port()}));
  ASSERT_TRUE(router.start());
  const auto want = direct_rollout(*a.sim, 4);

  // Four accepted-and-proxied requests pinned in the backends' schedulers.
  a.scheduler->pause();
  b.scheduler->pause();
  constexpr int kClients = 4;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      net::Client client(client_cfg(router));
      const net::ClientResult r = client.rollout(small_request(*a.sim, 4));
      if (r.ok() && r.frames.size() == want.size()) ++ok_count;
    });
  }
  ASSERT_TRUE(eventually([&] {
    return a.scheduler->queue_depth() + b.scheduler->queue_depth() >=
           kClients;
  }));
  // A connection accepted before the drain begins, submitting during it.
  net::Client late(client_cfg(router));
  ASSERT_TRUE(late.connect());

  std::thread stopper([&] { router.stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Mid-drain submissions are refused with the same typed ShuttingDown a
  // draining server answers — clients cannot tell router and server apart.
  const net::ClientResult refused = late.rollout(small_request(*a.sim, 4));
  ASSERT_TRUE(refused.transport_ok) << refused.transport_error;
  EXPECT_TRUE(refused.is_net_error);
  EXPECT_EQ(refused.net_error, net::NetError::ShuttingDown);

  a.scheduler->resume();
  b.scheduler->resume();
  for (auto& t : clients) t.join();
  stopper.join();
  EXPECT_EQ(ok_count.load(), kClients);  // zero accepted jobs dropped
  EXPECT_FALSE(router.running());

  // Drain ordering: the router let go of the backends before they stopped,
  // so both still serve directly and drain cleanly afterwards.
  net::ClientConfig direct_cfg;
  direct_cfg.port = a.server->port();
  net::Client direct_a(direct_cfg);
  EXPECT_TRUE(direct_a.rollout(small_request(*a.sim, 2)).ok());
  a.server->stop();
  b.server->stop();

  router.stop();  // idempotent
}

TEST(RouterFleet, LegacyV2BackendUsableWithConservativeDefaults) {
  net::ServerConfig legacy_cfg = backend_cfg("rt8a");
  legacy_cfg.max_protocol_version = 2;  // emulate a pre-HELLO binary
  BackendHarness a(legacy_cfg);
  ASSERT_TRUE(a.start());
  Router router(router_cfg("rt8", {a.server->port()}));
  ASSERT_TRUE(router.start());
  const auto want = direct_rollout(*a.sim, 4);

  // The HELLO is answered with a fatal BadVersion; the router must fall
  // back to v2 framing with wildcard models and legacy capacity — and the
  // rollout still comes back bitwise-identical.
  net::Client client(client_cfg(router));
  const net::ClientResult r = client.rollout(small_request(*a.sim, 4));
  ASSERT_TRUE(r.ok()) << r.transport_error << r.error;
  expect_bitwise_equal(r.frames, want);

  const std::vector<BackendSnapshot> snaps = router.snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_TRUE(snaps[0].capabilities.legacy);
  EXPECT_EQ(snaps[0].capabilities.wire_version, 2);
  EXPECT_EQ(snaps[0].capabilities.capacity, 1);  // tuning.legacy_capacity
  EXPECT_TRUE(snaps[0].capabilities.models.empty());

  // The fleet aggregate over a legacy-only fleet still admits work:
  // capacity counts the conservative slots, models stay unknown/empty.
  net::WireHelloReply hello;
  ASSERT_TRUE(raw_hello(router.port(), hello));
  EXPECT_EQ(hello.protocol_version, net::kProtocolVersion);
  EXPECT_GE(hello.max_inflight, 1u);
  EXPECT_TRUE(hello.models.empty());

  router.stop();
  a.server->stop();
}

TEST(RouterFleet, ClosedClientSessionsDoNotLeakThreads) {
  // No backend is needed: HELLO is answered by the router itself, and the
  // probe loop never runs (router_cfg parks it).
  Router router(router_cfg("rt9", {1}));
  ASSERT_TRUE(router.start());
  const double before_mb = vm_size_mb();

  // Each cycle is a whole session: accepted, served one HELLO, closed by
  // the client. An unjoined session thread keeps its stack (8 MB by
  // default) mapped, so 300 leaked threads would map gigabytes.
  constexpr int kCycles = 300;
  for (int i = 0; i < kCycles; ++i) {
    net::WireHelloReply hello;
    ASSERT_TRUE(raw_hello(router.port(), hello)) << "cycle " << i;
  }
  ASSERT_TRUE(eventually([] {
    return obs::MetricsRegistry::global().gauge("rt9.active_connections")
               .value() == 0.0;
  }));
  const double growth_mb = vm_size_mb() - before_mb;
  EXPECT_LT(growth_mb, 256.0) << "VmSize grew " << growth_mb << " MB over "
                              << kCycles << " closed sessions";

  router.stop();
}

TEST(RouterFleet, IdleClientConnectionIsClosed) {
  RouterConfig cfg = router_cfg("rt10", {1});
  cfg.client_idle_timeout_ms = 100.0;
  Router router(cfg);
  ASSERT_TRUE(router.start());

  // A client that connects and never sends is closed once idle: the read
  // sees EOF well inside the bound, not a hang.
  const int fd = raw_connect(router.port());
  const auto start = std::chrono::steady_clock::now();
  pollfd pfd{fd, POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 5000), 1) << "idle connection was never closed";
  std::uint8_t byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  EXPECT_GE(waited_ms, 90.0);
  EXPECT_LT(waited_ms, 5000.0);
  ::close(fd);

  router.stop();
}

TEST(RouterFleet, PipelinedRequestsOnOneClientAnswerInOrder) {
  net::ServerConfig a_cfg = backend_cfg("rt11a");
  a_cfg.chunk_frames = 2;  // several chunks per reply
  BackendHarness a(a_cfg);
  ASSERT_TRUE(a.start());
  Router router(router_cfg("rt11", {a.server->port()}));
  ASSERT_TRUE(router.start());

  // Two requests written back to back before any reply is read. The router
  // proxies one request per connection at a time, so the second waits in
  // its buffer; both streams must come back whole and in order.
  const int fd = raw_connect(router.port());
  std::vector<std::uint8_t> wire =
      net::encode_rollout_request(1, small_request(*a.sim, 5));
  const std::vector<std::uint8_t> second =
      net::encode_rollout_request(2, small_request(*a.sim, 3));
  wire.insert(wire.end(), second.begin(), second.end());
  ASSERT_TRUE(raw_send(fd, wire));

  std::vector<std::vector<double>> frames[2];
  std::vector<std::uint64_t> order;  // request id of each reply frame
  std::vector<std::uint8_t> buf;
  std::size_t off = 0;
  int finished = 0;
  while (finished < 2) {
    net::FrameView frame;
    ASSERT_TRUE(raw_next_frame(fd, buf, off, frame)) << "stream cut short";
    ASSERT_TRUE(frame.request_id == 1 || frame.request_id == 2);
    order.push_back(frame.request_id);
    std::vector<std::vector<double>>& got = frames[frame.request_id - 1];
    std::string parse_error;
    if (frame.type == net::MessageType::RolloutChunk) {
      net::WireChunk chunk;
      ASSERT_TRUE(net::decode_rollout_chunk(frame, chunk, parse_error))
          << parse_error;
      ASSERT_EQ(chunk.first_frame, got.size());
      for (std::uint32_t f = 0; f < chunk.num_frames(); ++f)
        got.emplace_back(chunk.data.begin() + f * chunk.frame_len,
                         chunk.data.begin() + (f + 1) * chunk.frame_len);
    } else {
      ASSERT_EQ(frame.type, net::MessageType::StatusReply);
      net::WireStatus status;
      ASSERT_TRUE(net::decode_status_reply(frame, status, parse_error))
          << parse_error;
      EXPECT_EQ(status.status, serve::JobStatus::Ok) << status.error;
      ++finished;
    }
  }
  ::close(fd);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()))
      << "the replies interleave";
  expect_bitwise_equal(frames[0], direct_rollout(*a.sim, 5));
  expect_bitwise_equal(frames[1], direct_rollout(*a.sim, 3));

  router.stop();
  a.server->stop();
}

/// A backend that answers HELLO like a v3 server serving "m", then answers
/// one request with RolloutChunks for as long as the socket takes them,
/// computing nothing. Its thread ends when the router closes the link.
class FloodBackend {
 public:
  FloodBackend() {
    listen_fd_ = net::listen_tcp("127.0.0.1", 0, port_);
    thread_ = std::thread([this] { serve(); });
  }
  ~FloodBackend() {
    thread_.join();
    ::close(listen_fd_);
  }
  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] bool link_closed() const { return link_closed_.load(); }

 private:
  void serve() {
    pollfd pfd{listen_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 10'000) != 1) return;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    // Bounded, so a router that never lets go fails the test, not hangs it.
    const timeval send_timeout{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                 sizeof(send_timeout));
    std::vector<std::uint8_t> buf;
    std::size_t off = 0;
    net::FrameView frame;
    while (raw_next_frame(fd, buf, off, frame)) {
      if (frame.type == net::MessageType::Hello) {
        net::WireHelloReply reply;
        reply.max_inflight = 4;
        reply.models = {"m"};
        if (!raw_send(fd, net::encode_hello_reply(frame.request_id, reply,
                                                  frame.version)))
          break;
        continue;
      }
      net::WireChunk chunk;
      chunk.frame_len = 128;
      chunk.data.assign(8 * chunk.frame_len, 0.5);  // 8 KB a chunk
      for (std::uint32_t first = 0; first < (1u << 24); first += 8) {
        chunk.first_frame = first;
        if (!raw_send(fd, net::encode_rollout_chunk(frame.request_id, chunk,
                                                    frame.version)))
          break;
      }
      link_closed_.store(errno == EPIPE || errno == ECONNRESET);
      break;
    }
    ::close(fd);
  }

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> link_closed_{false};
  std::thread thread_;
};

TEST(RouterFleet, NonReadingClientIsDroppedAndBackendReleased) {
  FloodBackend backend;
  RouterConfig cfg = router_cfg("rt12", {backend.port()});
  cfg.tuning.io_timeout_ms = 300.0;
  Router router(cfg);
  ASSERT_TRUE(router.start());
  const LearnedSimulator sim = make_small_sim();

  // A client that asks for a stream and never reads it. Once its receive
  // window and the socket buffers are full the router must stop reading
  // the backend (holding the stream back, not buffering it) and close the
  // client after io_timeout_ms of stalled writes, closing the link too.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int small_buffer = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &small_buffer, sizeof(small_buffer));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(router.port()));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_TRUE(
      raw_send(fd, net::encode_rollout_request(1, small_request(sim, 3))));

  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(eventually([] {
    return counter("rt12.timeouts") >= 1.0 &&
           obs::MetricsRegistry::global().gauge("rt12.active_connections")
                   .value() == 0.0;
  })) << "the stalled client was never closed";
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  EXPECT_GE(waited_ms, 250.0);
  EXPECT_LT(waited_ms, 5000.0);
  EXPECT_TRUE(eventually([&] { return router.snapshot()[0].inflight == 0; }));
  EXPECT_TRUE(eventually([&] { return backend.link_closed(); }))
      << "the backend link outlived the client";

  // What the client did get is a cut stream: chunks, then EOF, and never
  // a terminal status.
  std::vector<std::uint8_t> buf;
  std::size_t off = 0;
  net::FrameView frame;
  int chunks = 0;
  while (raw_next_frame(fd, buf, off, frame)) {
    EXPECT_EQ(frame.type, net::MessageType::RolloutChunk);
    ++chunks;
  }
  EXPECT_GT(chunks, 0);
  ::close(fd);

  router.stop();
}

}  // namespace
}  // namespace gns::router
