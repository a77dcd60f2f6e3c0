// cluster/ under chaos: 2 shards × 2 replicas of forked, fault-injecting
// backends, one replica SIGKILLed and restarted on its old port every few
// rounds, lookups pumped straight through. A binary of its own because
// it forks: after the other cluster tests have run their threads in the
// same process, ThreadSanitizer's runtime in the forked children reports
// "dup thread with used id" and a backend degrades. Alone it runs clean.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <memory>
#include <thread>
#include <vector>

#include "cluster_test_util.hpp"
#include "cluster/cluster_client.hpp"
#include "cluster/shard_map.hpp"
#include "net/fault.hpp"
#include "net/server.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"

namespace anchor::cluster {
namespace {

constexpr std::size_t kDim = 24;

/// Forked backend process for the chaos soak: serves one row slice with
/// the fault injector ARMED (latency spikes, swallowed replies, dropped
/// connections, truncated frames on every data-plane reply), until the
/// parent SIGKILLs it. Reports its port through `port_fd` when started
/// on an ephemeral port.
int chaos_backend_main(int port_fd, const embed::Embedding& rows,
                       std::uint16_t fixed_port, std::uint64_t seed) {
  serve::EmbeddingStore store;
  store.add_version("v1", rows, plain_snap());
  net::ServerConfig sc;
  sc.port = fixed_port;
  sc.fault_inject = true;
  sc.faults = net::FaultConfig::parse(
      "delay=0.10:15,drop=0.02,close=0.02,truncate=0.02");
  sc.fault_seed = seed;
  net::Server server(store, sc);
  server.start();
  const std::uint16_t port = server.port();
  if (port_fd >= 0) {
    if (::write(port_fd, &port, sizeof(port)) != sizeof(port)) return 1;
    ::close(port_fd);
  }
  while (!server.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  server.stop();
  return 0;
}

TEST(ChaosSoak, KillRestartUnderInjectedFaultsNeverDegradesOrDiverges) {
  constexpr std::size_t kCVocab = 400;
  const embed::Embedding base = random_embedding(83, kCVocab, kDim);
  serve::EmbeddingStore refstore;
  refstore.add_version("v1", base, plain_snap());
  serve::LookupService ref(refstore);

  // 2 shards × 2 replicas, every backend a SIGKILLable forked process
  // with fault injection on.
  const std::size_t splits[3] = {0, 200, kCVocab};
  struct Proc {
    pid_t pid = 0;
    std::uint16_t port = 0;
  };
  Proc procs[2][2];
  // Scope-exit reaper: a failed ASSERT_* returns out of the test body,
  // and orphaned fault-injected backends would hold the test's stdout
  // pipe open forever (ctest waits on the pipe, not just the process).
  struct Reaper {
    Proc (&procs)[2][2];
    ~Reaper() {
      for (auto& row : procs) {
        for (Proc& p : row) {
          if (p.pid > 0) {
            ::kill(p.pid, SIGKILL);
            ::waitpid(p.pid, nullptr, 0);
            p.pid = 0;
          }
        }
      }
    }
  } reaper{procs};
  const auto spawn = [&](std::size_t shard, std::size_t rep,
                         std::uint16_t fixed_port) -> bool {
    int fds[2] = {-1, -1};
    if (fixed_port == 0 && ::pipe(fds) != 0) return false;
    const pid_t pid = ::fork();
    if (pid < 0) return false;
    if (pid == 0) {
      if (fds[0] >= 0) ::close(fds[0]);
      ::_exit(chaos_backend_main(
          fds[1], slice(base, splits[shard], splits[shard + 1]), fixed_port,
          0x5eedULL + shard * 2 + rep));
    }
    procs[shard][rep].pid = pid;
    if (fixed_port != 0) {
      procs[shard][rep].port = fixed_port;
      return true;
    }
    ::close(fds[1]);
    std::uint16_t port = 0;
    const bool got = ::read(fds[0], &port, sizeof(port)) == sizeof(port);
    ::close(fds[0]);
    procs[shard][rep].port = port;
    return got && port != 0;
  };
  const auto wait_up = [&](std::size_t shard, std::size_t rep) -> bool {
    for (int i = 0; i < 500; ++i) {
      if (ClusterClient::probe("127.0.0.1", procs[shard][rep].port, 200) ==
          ClusterClient::ProbeResult::kUp) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  };
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t r = 0; r < 2; ++r) {
      ASSERT_TRUE(spawn(b, r, 0)) << "shard " << b << " replica " << r;
      ASSERT_TRUE(wait_up(b, r)) << "shard " << b << " replica " << r;
    }
  }

  ClusterConfig cc;
  cc.map = ShardMap(
      1, {ShardSpec({{"127.0.0.1", procs[0][0].port},
                     {"127.0.0.1", procs[0][1].port}},
                    0, 200),
          ShardSpec({{"127.0.0.1", procs[1][0].port},
                     {"127.0.0.1", procs[1][1].port}},
                    200, kCVocab)});
  cc.io_timeout_ms = 1000;
  cc.max_attempts = 4;
  auto health = std::make_shared<ClusterHealth>(cc.map);
  auto hedge = std::make_shared<HedgePolicy>(cc.map.num_shards());
  auto counters = std::make_shared<ClusterCounters>();
  ClusterClient client(cc, health, hedge, counters);

  // The soak: pumped traffic, with one replica SIGKILLed every 12th
  // round and restarted ON ITS OLD PORT a few lookups later. Invariants
  // under every fault the harness injects: while each shard keeps ≥ 1
  // live replica, NO lookup ever degrades and every result is
  // bit-identical to the single-process store. The pump is inline
  // (single-threaded) so fork() never runs while another thread holds a
  // lock — the ASan-safe shape.
  Rng rng(4242);
  std::size_t kills = 0;
  for (int round = 0; round < 60; ++round) {
    // The test's stand-in for the router's probe loop: a replica marked
    // down by a transient fault (e.g. a swallowed reply on both racers)
    // gets probed back up, exactly as anchor_router would.
    for (std::size_t b = 0; b < 2; ++b) {
      for (std::size_t r = 0; r < 2; ++r) {
        if (procs[b][r].pid > 0 && !health->healthy(b, r) &&
            ClusterClient::probe("127.0.0.1", procs[b][r].port, 200) ==
                ClusterClient::ProbeResult::kUp) {
          health->mark(b, r, true);
        }
      }
    }
    if (round > 0 && round % 12 == 0) {
      const std::size_t b = (round / 12) % 2;
      const std::size_t r = kills % 2;
      ++kills;
      ::kill(procs[b][r].pid, SIGKILL);
      ::waitpid(procs[b][r].pid, nullptr, 0);
      procs[b][r].pid = 0;
      // Pump straight through the outage: failover, never degradation.
      for (int i = 0; i < 3; ++i) {
        std::vector<std::size_t> ids(24);
        for (auto& id : ids) id = rng.index(kCVocab);
        const serve::LookupResult got = client.lookup_ids(ids);
        ASSERT_FALSE(client.last_degraded())
            << "degraded during outage, round " << round << " lookup " << i
            << " shard_ok=["
            << int(client.last_shard_ok()[0]) << ","
            << int(client.last_shard_ok()[1]) << "] health=["
            << health->healthy(0, 0) << health->healthy(0, 1) << ","
            << health->healthy(1, 0) << health->healthy(1, 1) << "]";
        ASSERT_TRUE(identical(got, ref.lookup_ids(ids)))
            << "diverged during outage, round " << round;
      }
      ASSERT_TRUE(spawn(b, r, procs[b][r].port)) << "restart failed";
      ASSERT_TRUE(wait_up(b, r)) << "restarted replica never answered";
      health->mark(b, r, true);
    }
    std::vector<std::size_t> ids(1 + rng.index(48));
    for (auto& id : ids) id = rng.index(kCVocab + 10);  // some OOV too
    const serve::LookupResult got = client.lookup_ids(ids);
    ASSERT_FALSE(client.last_degraded()) << "degraded, round " << round;
    ASSERT_TRUE(identical(got, ref.lookup_ids(ids)))
        << "diverged, round " << round;
  }
  EXPECT_EQ(kills, 4u);
  // The soak exercised the machinery it claims to: replicas died and
  // traffic moved (fault injection alone also bumps retries).
  EXPECT_GT(counters->failovers.load() + counters->retries.load(), 0u);
}

}  // namespace
}  // namespace anchor::cluster
