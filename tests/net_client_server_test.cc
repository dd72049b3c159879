// ShardClient / ShardServer: request/response over the simulated
// network, same-request-id retries on timeout, replay-cache dedup
// (including cached error responses, and keyed per client node), and
// deadline behavior on the logical clock.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/deadline.h"
#include "net/client.h"
#include "net/envelope.h"
#include "net/network.h"
#include "net/server.h"

namespace fasea {
namespace {

constexpr int kClientNode = -1;
constexpr int kServerNode = 0;

TEST(ClientServerTest, EchoRoundTrip) {
  SimulatedNetwork net(/*seed=*/3);
  ShardServer server(&net, kServerNode, ShardServerOptions{});
  int executions = 0;
  server.Handle(MessageKind::kHealth,
                [&executions](const Envelope& request) {
                  ++executions;
                  return StatusOr<std::string>("echo:" + request.body);
                });
  ShardClient client(&net, kClientNode, ShardClientOptions{});
  auto response = client.Call(MessageKind::kHealth, kServerNode,
                              /*txn=*/7, /*trace_id=*/9, "ping");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->ToStatus().ok());
  EXPECT_EQ(response->body, "echo:ping");
  EXPECT_EQ(response->txn, 7u);
  EXPECT_EQ(executions, 1);
}

TEST(ClientServerTest, SameSeedClientsOnTwoNodesEachGetTheirOwnResponse) {
  // Request ids are drawn from ShardClientOptions::seed, so two clients
  // built with the default seed send the same ids. The replay cache must
  // tell them apart by source node: the second call is a new request to
  // execute, not a retry of the first client's.
  SimulatedNetwork net(/*seed=*/3);
  ShardServer server(&net, kServerNode, ShardServerOptions{});
  int executions = 0;
  server.Handle(MessageKind::kHealth,
                [&executions](const Envelope& request) {
                  ++executions;
                  return StatusOr<std::string>("echo:" + request.body);
                });
  ShardClient first(&net, /*node=*/-1, ShardClientOptions{});
  ShardClient second(&net, /*node=*/-2, ShardClientOptions{});
  auto a = first.Call(MessageKind::kHealth, kServerNode, 1, 1, "first");
  auto b = second.Call(MessageKind::kHealth, kServerNode, 2, 2, "second");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->body, "echo:first");
  EXPECT_EQ(b->body, "echo:second");
  EXPECT_EQ(b->txn, 2u);
  EXPECT_EQ(executions, 2);
  EXPECT_EQ(server.dup_suppressed(), 0);
}

TEST(ClientServerTest, ErrorStatusesRelayWithTheirMessage) {
  SimulatedNetwork net(/*seed=*/3);
  ShardServer server(&net, kServerNode, ShardServerOptions{});
  server.Handle(MessageKind::kReserve, [](const Envelope&) {
    return StatusOr<std::string>(
        ResourceExhaustedError("no capacity left on shard 0"));
  });
  ShardClient client(&net, kClientNode, ShardClientOptions{});
  auto response =
      client.Call(MessageKind::kReserve, kServerNode, 1, 1, "");
  ASSERT_TRUE(response.ok());  // Transport succeeded; the app failed.
  const Status st = response->ToStatus();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("no capacity"), std::string::npos);
}

TEST(ClientServerTest, UnhandledKindFailsUnimplemented) {
  SimulatedNetwork net(/*seed=*/3);
  ShardServer server(&net, kServerNode, ShardServerOptions{});
  ShardClient client(&net, kClientNode, ShardClientOptions{});
  auto response =
      client.Call(MessageKind::kMigrate, kServerNode, 1, 1, "");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->ToStatus().code(), StatusCode::kUnimplemented);
}

TEST(ClientServerTest, TimedOutRetryIsAnsweredFromTheReplayCache) {
  SimulatedNetwork net(/*seed=*/5);
  ShardServer server(&net, kServerNode, ShardServerOptions{});
  int executions = 0;
  server.Handle(MessageKind::kCommit, [&executions](const Envelope&) {
    ++executions;
    return StatusOr<std::string>("committed");
  });
  // Drop every RESPONSE once: the request executes, the answer dies, the
  // client must retry with the same request id and be answered from the
  // replay cache, NOT by a second execution.
  NetFaultSchedule schedule;
  schedule.drop_rate = 0.45;
  schedule.seed = 17;
  net.ApplySchedule(schedule);
  ShardClientOptions options;
  options.attempt_timeout_ticks = 8;
  options.call_timeout_ticks = 4000;
  options.retry.max_attempts = 64;
  ShardClient client(&net, kClientNode, options);
  for (int i = 0; i < 24; ++i) {
    auto response = client.Call(MessageKind::kCommit, kServerNode,
                                static_cast<std::uint64_t>(i), 1, "");
    ASSERT_TRUE(response.ok())
        << i << ": " << response.status().ToString();
    EXPECT_EQ(response->body, "committed");
  }
  // Each of the 24 calls executed exactly once, no matter how many
  // transport attempts it took.
  EXPECT_EQ(executions, 24);
  EXPECT_GT(client.retries(), 0) << "the schedule never bit — weak test";
  EXPECT_GT(server.dup_suppressed(), 0);
}

TEST(ClientServerTest, DuplicatedRequestsExecuteOnce) {
  SimulatedNetwork net(/*seed=*/5);
  ShardServer server(&net, kServerNode, ShardServerOptions{});
  int executions = 0;
  server.Handle(MessageKind::kCommit, [&executions](const Envelope&) {
    ++executions;
    return StatusOr<std::string>("ok");
  });
  NetFaultSchedule schedule;
  schedule.dup_rate = 1.0;  // The fabric clones every message.
  schedule.seed = 2;
  net.ApplySchedule(schedule);
  ShardClient client(&net, kClientNode, ShardClientOptions{});
  for (int i = 0; i < 10; ++i) {
    auto response = client.Call(MessageKind::kCommit, kServerNode,
                                static_cast<std::uint64_t>(i), 1, "");
    ASSERT_TRUE(response.ok());
  }
  EXPECT_EQ(executions, 10);
  EXPECT_GT(server.dup_suppressed(), 0);
}

TEST(ClientServerTest, ErrorResponsesAreCachedToo) {
  SimulatedNetwork net(/*seed=*/5);
  ShardServer server(&net, kServerNode, ShardServerOptions{});
  int executions = 0;
  server.Handle(MessageKind::kReserve, [&executions](const Envelope&) {
    ++executions;
    return StatusOr<std::string>(InternalError("boom"));
  });
  NetFaultSchedule schedule;
  schedule.dup_rate = 1.0;
  schedule.seed = 2;
  net.ApplySchedule(schedule);
  ShardClient client(&net, kClientNode, ShardClientOptions{});
  auto response = client.Call(MessageKind::kReserve, kServerNode, 1, 1, "");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->ToStatus().code(), StatusCode::kInternal);
  EXPECT_EQ(executions, 1);  // The duplicate hit the cache.
}

TEST(ClientServerTest, DeadServerTimesOutWithinTheDeadline) {
  SimulatedNetwork net(/*seed=*/5);
  ShardClientOptions options;
  options.attempt_timeout_ticks = 4;
  options.retry.max_attempts = 3;
  ShardClient client(&net, kClientNode, options);
  const std::int64_t budget = 64;
  auto response =
      client.Call(MessageKind::kHealth, kServerNode, 1, 1, "",
                  Deadline::AtNanos(net.now() + budget));
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().code() == StatusCode::kDeadlineExceeded ||
              response.status().code() == StatusCode::kUnavailable)
      << response.status().ToString();
  EXPECT_LE(net.now(), budget + options.attempt_timeout_ticks);
  EXPECT_GT(client.timeouts(), 0);
}

}  // namespace
}  // namespace fasea
