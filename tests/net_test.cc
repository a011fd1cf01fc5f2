// NetworkModel determinism and crash semantics.
//
// The simulated network must be a pure function of (topology params,
// seed, send sequence): byte-identical delivery order and timestamps
// across runs, FCFS bandwidth serialization per directed link, and
// honest message loss around node crashes — anything in flight to or
// from a crashed node is dropped, and the callback still fires (with
// delivered=false) at the would-be arrival time so protocols get a
// deterministic failure detector instead of a silent hang.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "net/network.h"
#include "sim/scheduler.h"
#include "test_util.h"
#include "util/random.h"

namespace mmdb {
namespace {

// Runs a seeded random message storm and returns one line per delivery
// callback: "<arrival> <src>-><dst> <bytes> <ok>".
std::string StormLog(uint64_t seed) {
  sim::EventScheduler sched;
  net::LinkParams params;  // defaults: 50 us latency, 1 GB/s, 2 us jitter
  net::NetworkModel net(4, params, seed, &sched);
  Random rng(seed + 99);
  std::ostringstream log;
  for (int i = 0; i < 200; ++i) {
    const uint32_t src = static_cast<uint32_t>(rng.Uniform(4));
    const uint32_t dst = static_cast<uint32_t>(rng.Uniform(4));
    const uint64_t bytes = 32 + rng.Uniform(4000);
    const uint64_t at = rng.Uniform(500'000);
    sched.At(at, [&net, &log, src, dst, bytes](uint64_t now) {
      net.Send(src, dst, bytes, now,
               [&log, src, dst, bytes](uint64_t arrive, bool ok) {
                 log << arrive << " " << src << "->" << dst << " " << bytes
                     << " " << ok << "\n";
               });
    });
  }
  EXPECT_OK(sched.Run());
  log << "sent=" << net.stats().messages_sent
      << " delivered=" << net.stats().messages_delivered
      << " bytes=" << net.stats().bytes_sent << "\n";
  return log.str();
}

TEST(NetworkModelTest, DeliveryLogIsByteIdenticalForFixedSeed) {
  const std::string a = StormLog(7);
  const std::string b = StormLog(7);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  // A different seed jitters messages differently.
  EXPECT_NE(a, StormLog(8));
}

TEST(NetworkModelTest, BandwidthSerializesPerDirectedLink) {
  sim::EventScheduler sched;
  net::LinkParams params;
  params.latency_ns = 50'000;
  params.bandwidth_bytes_per_sec = 1e9;  // 1 ns per byte
  params.jitter_ns = 0;
  net::NetworkModel net(3, params, 1, &sched);
  // Two back-to-back messages on 0->1 queue behind each other; the
  // reverse direction and other links are independent.
  EXPECT_EQ(net.Send(0, 1, 1000, 0, [](uint64_t, bool) {}), 51'000u);
  EXPECT_EQ(net.Send(0, 1, 1000, 0, [](uint64_t, bool) {}), 52'000u);
  EXPECT_EQ(net.Send(1, 0, 1000, 0, [](uint64_t, bool) {}), 51'000u);
  EXPECT_EQ(net.Send(0, 2, 1000, 0, [](uint64_t, bool) {}), 51'000u);
  ASSERT_OK(sched.Run());
  EXPECT_EQ(net.stats().messages_delivered, 4u);
}

TEST(NetworkModelTest, InFlightMessagesDropAtCrash) {
  sim::EventScheduler sched;
  net::LinkParams params;
  params.jitter_ns = 0;
  net::NetworkModel net(2, params, 1, &sched);
  std::vector<std::string> events;
  // In flight *to* node 1 when it crashes at t=10us: dropped, and the
  // callback still fires at the would-be arrival time.
  net.Send(0, 1, 64, 0, [&](uint64_t now, bool ok) {
    events.push_back("to_crashed ok=" + std::to_string(ok) + " at=" +
                     std::to_string(now));
  });
  // In flight *from* node 1 when it crashes: the connection died with
  // the sender, so the message is lost too.
  net.Send(1, 0, 64, 0, [&](uint64_t, bool ok) {
    events.push_back("from_crashed ok=" + std::to_string(ok));
  });
  sched.At(10'000, [&](uint64_t) { net.NodeDown(1); });
  ASSERT_OK(sched.Run());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], "to_crashed ok=0 at=" +
                           std::to_string(params.latency_ns + 64));
  EXPECT_EQ(events[1], "from_crashed ok=0");
  EXPECT_EQ(net.stats().messages_dropped, 2u);
  EXPECT_EQ(net.stats().messages_delivered, 0u);
}

TEST(NetworkModelTest, IncarnationOutlivesRestart) {
  sim::EventScheduler sched;
  net::LinkParams params;
  params.jitter_ns = 0;
  net::NetworkModel net(2, params, 1, &sched);
  int old_ok = -1;
  int new_ok = -1;
  // Sent to incarnation 0 of node 1; node 1 crashes AND restarts before
  // the arrival. The restarted node must not receive a message addressed
  // to its previous life.
  net.Send(0, 1, 64, 0, [&](uint64_t, bool ok) { old_ok = ok ? 1 : 0; });
  sched.At(1'000, [&](uint64_t) {
    net.NodeDown(1);
    net.NodeUp(1);
  });
  // Sent after the restart: delivers normally.
  sched.At(2'000, [&](uint64_t now) {
    net.Send(0, 1, 64, now, [&](uint64_t, bool ok) { new_ok = ok ? 1 : 0; });
  });
  ASSERT_OK(sched.Run());
  EXPECT_EQ(old_ok, 0);
  EXPECT_EQ(new_ok, 1);
}

TEST(NetworkModelTest, LoopbackBypassesTheWire) {
  sim::EventScheduler sched;
  net::NetworkModel net(2, net::LinkParams{}, 1, &sched);
  uint64_t arrived = 0;
  bool delivered = false;
  sched.At(5'000, [&](uint64_t now) {
    net.Send(1, 1, 4096, now, [&](uint64_t t, bool ok) {
      arrived = t;
      delivered = ok;
    });
  });
  ASSERT_OK(sched.Run());
  EXPECT_TRUE(delivered);
  EXPECT_EQ(arrived, 5'000u);
}

TEST(NetworkModelTest, SendToDownNodeFailsAtArrivalTime) {
  sim::EventScheduler sched;
  net::LinkParams params;
  params.jitter_ns = 0;
  net::NetworkModel net(2, params, 1, &sched);
  net.NodeDown(1);
  bool called = false;
  net.Send(0, 1, 64, 0, [&](uint64_t now, bool ok) {
    called = true;
    EXPECT_FALSE(ok);
    EXPECT_EQ(now, params.latency_ns + 64);
  });
  ASSERT_OK(sched.Run());
  EXPECT_TRUE(called);
}

}  // namespace
}  // namespace mmdb
