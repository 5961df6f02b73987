// Tests of the benchmark harness itself: the percentile rule, failure
// accounting, seeded inputs and the latency clock. Run them with
// `python3 fleetbench/run.py --self-test`.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>

#include "common/framing.h"
#include "common/socket.h"
#include "core/simulation.h"
#include "harness.h"
#include "server/api.h"
#include "server/wire.h"
#include "workloads.h"

namespace fleetbench {
namespace {

using rvss::json::Json;

/// A one-connection peer scripted by `serve`, on a unix socket under the
/// build directory.
class FakePeer {
 public:
  explicit FakePeer(std::function<void(rvss::net::Socket&)> serve)
      : address_("unix:.bench_build/fleetbench-test-" +
                 std::to_string(::getpid()) + ".sock") {
    ::mkdir(".bench_build", 0755);
    auto listener = rvss::net::ListenOn(address_);
    EXPECT_TRUE(listener.ok());
    listener_ = std::move(listener).value();
    thread_ = std::thread([this, serve = std::move(serve)] {
      auto accepted = rvss::net::AcceptOn(listener_, 5'000);
      if (accepted.ok()) serve(accepted.value());
    });
  }
  ~FakePeer() {
    thread_.join();
    ::unlink(address_.substr(5).c_str());
  }

  rvss::net::Socket Connect() {
    auto socket = rvss::net::ConnectTo(address_, 5'000);
    EXPECT_TRUE(socket.ok());
    return std::move(socket).value();
  }

 private:
  std::string address_;
  rvss::net::Socket listener_;
  std::thread thread_;
};

void SendFrame(rvss::net::Socket& socket, const std::string& text) {
  ASSERT_TRUE(rvss::net::SendAll(socket,
                                 rvss::net::EncodeFrameHeader(text.size(), 0) +
                                     text,
                                 5'000)
                  .ok());
}

TEST(Percentile, ReportedTailHasTenSamplesBeyondIt) {
  EXPECT_TRUE(PercentileSupported(1000, 0.99));   // rank 990, 10 beyond
  EXPECT_FALSE(PercentileSupported(999, 0.99));   // rank 990, 9 beyond
  EXPECT_TRUE(PercentileSupported(100, 0.9));
  EXPECT_FALSE(PercentileSupported(99, 0.9));

  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(i);
  EXPECT_EQ(Percentile(values, 0.5), 500);
  EXPECT_EQ(Percentile(values, 0.99), 990);

  std::vector<std::string> failures;
  const Metric p99 = PercentileMetric("p99", values, 0.99, "ms", &failures);
  EXPECT_TRUE(failures.empty());
  EXPECT_EQ(p99.value, 990);
  EXPECT_EQ(p99.note, "n=1000, 10 beyond");

  const std::vector<std::vector<double>> segments = {
      std::vector<double>(values.begin(), values.begin() + 100),
      std::vector<double>(values.begin(), values.begin() + 200)};
  const Metric tail =
      SegmentPercentileMetric("p90", segments, 0.9, "ms", &failures);
  EXPECT_TRUE(failures.empty());
  EXPECT_EQ(tail.value, (90 + 180) / 2.0) << "median over segments";
  EXPECT_EQ(tail.note, "median of 2 segments; each n>=100, >=10 beyond");

  SegmentPercentileMetric("p90", {segments[0], std::vector<double>(99, 1.0)},
                          0.9, "ms", &failures);
  EXPECT_EQ(failures.size(), 1u) << "a segment without ten samples beyond "
                                    "its p90 must fail the run";
}

TEST(Outcomes, EnvelopeShedAndTimeoutEachCountOnce) {
  FakePeer peer([](rvss::net::Socket& socket) {
    rvss::server::WireOptions wire;
    const rvss::Error invalid{rvss::ErrorKind::kInvalidArgument, "bad"};
    const rvss::Error shed{rvss::ErrorKind::kUnavailable, "lane full"};
    for (const rvss::Error& error : {invalid, shed}) {
      ASSERT_TRUE(rvss::server::ReadMessage(socket, wire).ok());
      SendFrame(socket, rvss::server::MakeErrorResponse(error).Dump());
    }
    // The third request is read and never answered: a timeout.
    ASSERT_TRUE(rvss::server::ReadMessage(socket, wire).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
  });
  rvss::net::Socket socket = peer.Connect();
  Tally tally;
  for (int i = 0; i < 3; ++i) {
    Result<Reply> reply = Exchange(socket, R"({"command":"step"})", 150);
    tally.Count(reply.ok() ? Classify(rvss::json::Parse(reply.value().text)
                                          .value())
                           : Outcome::kTransport);
  }
  EXPECT_EQ(tally.attempted, 3u);
  EXPECT_EQ(tally.errorEnvelopes, 1u);
  EXPECT_EQ(tally.sheds, 1u);
  EXPECT_EQ(tally.transportErrors, 1u);
  EXPECT_EQ(tally.failed(), 3u);
  EXPECT_DOUBLE_EQ(tally.FailedShare(), 1.0);

  Json ok = Json::MakeObject();
  ok.Set("status", "ok");
  EXPECT_EQ(Classify(ok), Outcome::kOk);
}

TEST(Inputs, SameSeedSameStreamsAndKernels) {
  const auto clicks = [](std::uint64_t seed, int session) {
    ClickStream stream(seed, session);
    std::vector<Click> drawn;
    for (std::uint64_t cycle = 0; cycle < 500; ++cycle) {
      drawn.push_back(stream.Next(cycle));
    }
    return drawn;
  };
  EXPECT_EQ(clicks(7, 3), clicks(7, 3));
  EXPECT_NE(clicks(7, 3), clicks(8, 3));
  EXPECT_NE(clicks(7, 3), clicks(7, 4));
  const std::vector<Click> stream = clicks(7, 3);
  EXPECT_EQ(stream[0], Click::kStep) << "no stepBack at cycle 0";
  const auto backs = std::count(stream.begin(), stream.end(), Click::kStepBack);
  EXPECT_GT(backs, 20);
  EXPECT_LT(backs, 80);

  const std::vector<Kernel> a = MakeKernels(7, 24);
  const std::vector<Kernel> b = MakeKernels(7, 24);
  const std::vector<Kernel> c = MakeKernels(8, 24);
  ASSERT_EQ(a.size(), 24u);
  int differing = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].source, b[i].source);
    EXPECT_EQ(a[i].expectedA0, b[i].expectedA0);
    EXPECT_EQ(a[i].fastForwardShare, b[i].fastForwardShare);
    differing += a[i].source != c[i].source;
  }
  EXPECT_EQ(differing, 24) << "another seed must give other kernels";
}

TEST(Inputs, KernelResultsMatchTheIss) {
  // The batch check compares a0 with the natively computed result; pin
  // that the generator's native twin agrees with the reference ISS.
  for (const Kernel& kernel : MakeKernels(11, 6)) {
    Result<std::string> assembly = CompileC(kernel.source);
    ASSERT_TRUE(assembly.ok()) << kernel.name;
    auto sim = CreateSimulation(assembly.value());
    ASSERT_TRUE(sim.ok()) << kernel.name;
    ASSERT_TRUE(sim.value()->FastForwardTo(UINT64_MAX).ok());
    EXPECT_EQ(static_cast<std::uint32_t>(sim.value()->ReadIntReg(10)),
              kernel.expectedA0)
        << kernel.name;
  }
}

TEST(Clock, StopsAtTheLastResponseByte) {
  constexpr auto kGap = std::chrono::milliseconds(100);
  constexpr auto kLinger = std::chrono::milliseconds(300);
  FakePeer peer([&](rvss::net::Socket& socket) {
    rvss::server::WireOptions wire;
    ASSERT_TRUE(rvss::server::ReadMessage(socket, wire).ok());
    const std::string text = R"({"status":"ok"})";
    // Header first, the body only after a gap: the clock must not stop
    // at the header. Then linger before closing: it must not run on.
    ASSERT_TRUE(rvss::net::SendAll(
                    socket, rvss::net::EncodeFrameHeader(text.size(), 0), 5'000)
                    .ok());
    std::this_thread::sleep_for(kGap);
    ASSERT_TRUE(rvss::net::SendAll(socket, text, 5'000).ok());
    std::this_thread::sleep_for(kLinger);
  });
  rvss::net::Socket socket = peer.Connect();
  Result<Reply> reply = Exchange(socket, R"({"command":"step"})", 5'000);
  ASSERT_TRUE(reply.ok());
  EXPECT_GE(reply.value().latencyUs, 100'000);
  EXPECT_LT(reply.value().latencyUs, 250'000);
  EXPECT_EQ(reply.value().text, R"({"status":"ok"})");
  EXPECT_EQ(reply.value().frameBytes,
            rvss::net::kFrameHeaderBytes + reply.value().text.size());
}

}  // namespace
}  // namespace fleetbench
