// Serving-robustness coverage for the TCP frontend: the HELLO handshake,
// frame caps, idle/stalled-client timeouts, wire deadlines, overload
// shedding end to end, client retry policy, and the bounded drain.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "sql/engine.h"
#include "sql/session.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/status.h"

namespace mview::server {
namespace {

using sql::EngineCore;
using util::FaultKind;
using util::FaultSpec;
using util::ScopedFault;

using Lane = util::AdmissionController::Lane;

class RobustnessTest : public ::testing::Test {
 protected:
  void StartServer(Server::Options options) {
    server_ = std::make_unique<Server>(&core_, options);
    server_->Start();
    ASSERT_GT(server_->port(), 0);
  }

  Client Connect() {
    Client client;
    client.Connect("127.0.0.1", server_->port());
    return client;
  }

  EngineCore core_;
  std::unique_ptr<Server> server_;
};

// ------------------------------------------------------------------ auth ---

TEST_F(RobustnessTest, UnauthenticatedConnectionsGetOnlyHelloAndQuit) {
  Server::Options options;
  options.auth_token = "sekrit";
  StartServer(options);

  Client client = Connect();
  WireResponse denied = client.Execute("SELECT 1");
  EXPECT_FALSE(denied.ok);
  EXPECT_EQ(denied.kind, Status::Kind::kUnauthenticated);

  // A bad token is rejected but the connection survives to try again.
  EXPECT_EQ(client.Hello("wrong").kind, Status::Kind::kUnauthenticated);
  EXPECT_EQ(client.Execute("CREATE TABLE t (a INT64)").kind,
            Status::Kind::kUnauthenticated);

  // The right token unlocks the connection.
  EXPECT_TRUE(client.Hello("sekrit").ok);
  EXPECT_TRUE(client.Execute("CREATE TABLE t (a INT64)").ok);
  EXPECT_TRUE(client.Execute("INSERT INTO t VALUES (1)").ok);

  // QUIT needs no auth: a polite stranger can always leave.
  Client stranger = Connect();
  EXPECT_TRUE(stranger.Execute("QUIT").ok);
}

TEST_F(RobustnessTest, NoTokenConfiguredMeansOpenServer) {
  StartServer(Server::Options{});
  Client client = Connect();
  EXPECT_TRUE(client.Execute("CREATE TABLE t (a INT64)").ok);
  // HELLO against an open server is accepted with any token.
  EXPECT_TRUE(client.Hello("anything").ok);
}

// ----------------------------------------------------------------- frames ---

TEST_F(RobustnessTest, OversizeFrameKillsTheConnectionNotTheServer) {
  Server::Options options;
  options.max_request_bytes = 256;
  StartServer(options);

  Client victim = Connect();
  const std::string big(1024, 'x');
  WireResponse refused = victim.Execute("SELECT '" + big + "'");
  EXPECT_FALSE(refused.ok);
  // The connection is gone afterwards…
  EXPECT_THROW(victim.Execute("SELECT 1"), IoError);

  // …but the server is fine, and fresh connections are served.
  Client fresh = Connect();
  EXPECT_TRUE(fresh.Execute("CREATE TABLE t (a INT64)").ok);
}

TEST_F(RobustnessTest, MalformedDeadlinePrefixIsJustAParseError) {
  StartServer(Server::Options{});
  Client client = Connect();
  ASSERT_TRUE(client.Execute("CREATE TABLE t (a INT64)").ok);

  // `@` not followed by digits+space is statement text; SQL never starts
  // with '@', so the parser rejects it — and the connection survives.
  WireResponse bad = client.Execute("@notanumber SELECT * FROM t");
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.kind, Status::Kind::kParseError);
  EXPECT_TRUE(client.Execute("SELECT * FROM t").ok);
}

// A digit run beyond int64 is a parse error like any other: it must not
// escape the lexer as std::out_of_range and take the whole process down.
TEST_F(RobustnessTest, OutOfRangeLiteralIsAParseErrorNotACrash) {
  StartServer(Server::Options{});
  Client client = Connect();
  ASSERT_TRUE(client.Execute("CREATE TABLE t (a INT64)").ok);

  WireResponse bad =
      client.Execute("SELECT * FROM t WHERE a = 99999999999999999999");
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.kind, Status::Kind::kParseError);
  EXPECT_NE(bad.message.find("offset 26"), std::string::npos) << bad.message;
  // The same connection answers the next frames.
  WireResponse next = client.Execute("SELECT 1");
  EXPECT_EQ(next.kind, Status::Kind::kParseError);  // SELECT needs FROM
  EXPECT_TRUE(client.Execute("INSERT INTO t VALUES (-9223372036854775808)").ok);
  EXPECT_TRUE(client.Execute("SELECT * FROM t").ok);
  // So does a deadline prefix too long for an int64: it stays statement
  // text, which the parser rejects.
  EXPECT_EQ(client.Execute("@99999999999999999999 SELECT * FROM t").kind,
            Status::Kind::kParseError);
}

// -------------------------------------------------------------- deadlines ---

TEST_F(RobustnessTest, WireDeadlineCancelsTheStatement) {
  StartServer(Server::Options{});
  Client client = Connect();
  ASSERT_TRUE(client.Execute("CREATE TABLE t (a INT64)").ok);

  // Force the expiry at the statement's first poll point, so the test does
  // not depend on wall-clock timing.
  FaultSpec spec;
  spec.kind = FaultKind::kDeadline;
  ScopedFault fault("cancel.poll", spec);
  WireResponse cancelled =
      client.Execute("INSERT INTO t VALUES (1)", /*deadline_ms=*/60'000);
  EXPECT_FALSE(cancelled.ok);
  EXPECT_EQ(cancelled.kind, Status::Kind::kDeadlineExceeded);

  // The statement unwound: the table is still empty, the connection fine.
  WireResponse rows = client.Execute("SELECT * FROM t");
  ASSERT_TRUE(rows.ok);
  EXPECT_NE(rows.raw.find("\"rows\":[]"), std::string::npos);
}

// --------------------------------------------------------------- overload ---

TEST_F(RobustnessTest, OverloadShedTravelsTheWireWithRetryAfter) {
  core_.SetAdmissionControl({/*read_slots=*/0, /*write_slots=*/1});
  StartServer(Server::Options{});
  Client client = Connect();
  ASSERT_TRUE(client.Execute("CREATE TABLE t (a INT64)").ok);

  ASSERT_TRUE(core_.mutable_admission()->TryEnter(Lane::kWrite));
  WireResponse shed = client.Execute("INSERT INTO t VALUES (1)");
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.kind, Status::Kind::kOverloaded);
  EXPECT_GE(shed.retry_after_ms, 1);
  EXPECT_NE(shed.raw.find("\"retry_after_ms\":"), std::string::npos);
  core_.mutable_admission()->Exit(Lane::kWrite, 0);

  // Writes are not retried by the retry helper: exactly one shed recorded.
  EXPECT_FALSE(Client::IsIdempotentRead("INSERT INTO t VALUES (1)"));
  EXPECT_TRUE(client.Execute("INSERT INTO t VALUES (1)").ok);
}

TEST_F(RobustnessTest, RetryHelperRetriesReadsAndHonorsTheHint) {
  core_.SetAdmissionControl({/*read_slots=*/1, /*write_slots=*/0});
  StartServer(Server::Options{});
  Client client = Connect();
  ASSERT_TRUE(client.Execute("CREATE TABLE t (a INT64)").ok);
  ASSERT_TRUE(client.Execute("INSERT INTO t VALUES (1)").ok);

  EXPECT_TRUE(Client::IsIdempotentRead("  select * from t"));
  EXPECT_TRUE(Client::IsIdempotentRead("SHOW STATS"));
  EXPECT_FALSE(Client::IsIdempotentRead("DELETE FROM t"));

  // Saturate the read lane: each retry attempt is shed, so the shed
  // counter counts attempts — proof the helper actually retried.
  ASSERT_TRUE(core_.mutable_admission()->TryEnter(Lane::kRead));
  const int64_t shed_before = core_.admission()->snapshot().read_shed;
  RetryOptions retry;
  retry.max_attempts = 3;
  retry.base_backoff_ms = 1;
  WireResponse still_shed =
      client.ExecuteWithRetry("SELECT * FROM t", 0, retry);
  EXPECT_EQ(still_shed.kind, Status::Kind::kOverloaded);
  EXPECT_EQ(core_.admission()->snapshot().read_shed, shed_before + 3);

  // Freeing the lane mid-policy: the next retry succeeds.
  core_.mutable_admission()->Exit(Lane::kRead, 0);
  WireResponse served = client.ExecuteWithRetry("SELECT * FROM t", 0, retry);
  ASSERT_TRUE(served.ok);
  EXPECT_NE(served.raw.find("\"rows\":[[1]]"), std::string::npos);
}

TEST_F(RobustnessTest, RetryHelperReconnectsAndReauthenticates) {
  Server::Options options;
  options.auth_token = "sekrit";
  StartServer(options);
  Client client = Connect();
  ASSERT_TRUE(client.Hello("sekrit").ok);
  ASSERT_TRUE(client.Execute("CREATE TABLE t (a INT64)").ok);

  // Sever the connection out from under the client; the retry helper must
  // reconnect *and* replay HELLO before the read.
  client.Close();
  WireResponse served = client.ExecuteWithRetry("SELECT * FROM t");
  EXPECT_TRUE(served.ok) << served.raw;
}

// ----------------------------------------------------- timeouts and drain ---

TEST_F(RobustnessTest, IdleConnectionsAreReaped) {
  Server::Options options;
  options.idle_timeout_ms = 100;
  StartServer(options);
  Client client = Connect();
  ASSERT_TRUE(client.Execute("SHOW STATS").ok);  // the connection works…
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_THROW(
      {
        // The reaped fd may absorb one buffered send before the failure
        // surfaces; issue two requests so either path throws.
        client.Execute("CREATE TABLE t (a INT64)");
        client.Execute("SELECT * FROM t");
      },
      IoError);
  // The server itself keeps serving.
  Client fresh = Connect();
  EXPECT_TRUE(fresh.Execute("CREATE TABLE u (a INT64)").ok);
}

TEST_F(RobustnessTest, DrainIsBoundedWhenAClientStopsReading) {
  Server::Options options;
  options.write_timeout_ms = 100;
  options.drain_timeout_ms = 500;
  StartServer(options);

  // Build a response far larger than the kernel socket buffers, so the
  // server's write genuinely stalls against a reader that never reads.
  {
    std::unique_ptr<sql::Session> admin = core_.CreateSession();
    admin->Execute("CREATE TABLE big (a INT64, s STRING)");
    const std::string chunk(4096, 'z');
    for (int batch = 0; batch < 20; ++batch) {
      std::string insert = "INSERT INTO big VALUES ";
      for (int row = 0; row < 100; ++row) {
        if (row > 0) insert += ", ";
        insert += "(" + std::to_string(batch * 100 + row) + ", '" + chunk +
                  "')";
      }
      admin->Execute(insert);
    }
  }

  // A raw socket with a tiny receive buffer that requests the whole table
  // and then never reads a byte: the classic hung client.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int tiny = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request = "SELECT * FROM big\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  // Let the server start writing and wedge against the full buffers.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  const auto start = std::chrono::steady_clock::now();
  server_->Shutdown();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  // Before the bounded drain this hung forever; now the stalled-write
  // timeout plus the drain bound cap it.  Generous ceiling for slow CI.
  EXPECT_LT(elapsed, 5000) << "drain did not respect its bound";
  ::close(fd);
}

}  // namespace
}  // namespace mview::server
